#include "tracedb/database.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>
#include <tuple>

#include "support/strutil.hpp"
#include "telemetry/hdr_histogram.hpp"
#include "tracedb/metrics.hpp"

namespace tracedb {

telemetry::HdrSnapshot snapshot_of(const LatencyRecord& rec) {
  telemetry::HdrSnapshot snap;
  for (const auto& [idx, n] : rec.buckets) snap.add_bucket(idx, n);
  snap.set_exact_sum(rec.sum_ns);
  return snap;
}

LatencyRecord latency_record(EnclaveId enclave, CallType type, CallId call_id,
                             const telemetry::HdrSnapshot& snap) {
  LatencyRecord rec;
  rec.enclave_id = enclave;
  rec.type = type;
  rec.call_id = call_id;
  rec.count = snap.count();
  rec.sum_ns = snap.sum();
  const auto& buckets = snap.buckets();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] > 0) rec.buckets.emplace_back(static_cast<std::uint32_t>(i), buckets[i]);
  }
  return rec;
}

DbMetrics& db_metrics() {
  static DbMetrics m;
  return m;
}

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// True if no row's key is smaller than the key of the row before it.
template <class Record>
bool in_key_order(const std::vector<Record>& rows, Nanoseconds Record::*key) {
  return std::is_sorted(rows.begin(), rows.end(),
                        [key](const Record& a, const Record& b) { return a.*key < b.*key; });
}

/// One live shard's rows of one table, read in (key, append index) order:
/// `order` lists their append indices in that order, and stays empty when
/// the rows were appended in it (one thread's clock only moves forward).
template <class Record>
struct Part {
  std::vector<Record>* rows = nullptr;
  ShardId id = 0;
  std::vector<std::size_t> order;

  [[nodiscard]] std::size_t size() const noexcept { return rows->size(); }
  /// Append index of the part's `j`-th row in key order.
  [[nodiscard]] std::size_t local(std::size_t j) const noexcept {
    return order.empty() ? j : order[j];
  }
  [[nodiscard]] const Record& row(std::size_t j) const noexcept { return (*rows)[local(j)]; }
};

/// Where one part's rows landed in the merged table: the row with append
/// index `i` at `at[i]`, or at `base + i` when `at` is empty.
struct Placement {
  std::size_t base = 0;
  std::size_t count = 0;
  std::vector<std::size_t> at;

  [[nodiscard]] std::size_t operator[](std::size_t i) const noexcept {
    return at.empty() ? base + i : at[i];
  }
};

/// A part's next unmerged row in the loser tree.
struct Cursor {
  std::size_t part = 0;
  std::size_t pos = 0;
  std::size_t end = 0;
  Nanoseconds head = 0;  // key of row `pos`
  ShardId id = 0;

  [[nodiscard]] bool exhausted() const noexcept { return pos >= end; }
};

/// Tournament (loser) tree over k cursors: each internal node keeps the
/// loser of its match and the winner sits at the root, so emitting a row
/// replays one leaf-to-root path of log2(k) comparisons.
class LoserTree {
 public:
  explicit LoserTree(const std::vector<Cursor>& cursors) : cursors_(cursors) {
    while (k_ < cursors_.size()) k_ <<= 1;
    loser_.assign(k_, kNone);
    std::vector<std::size_t> winner(2 * k_, kNone);
    for (std::size_t i = 0; i < cursors_.size(); ++i) winner[k_ + i] = i;
    for (std::size_t n = k_ - 1; n >= 1; --n) {
      std::size_t a = winner[2 * n];
      std::size_t b = winner[2 * n + 1];
      if (beats(b, a)) std::swap(a, b);
      winner[n] = a;  // winner moves up
      loser_[n] = b;  // loser stays at this match
    }
    winner_ = winner[1];
  }

  /// Cursor holding the smallest head.
  [[nodiscard]] std::size_t top() const noexcept { return winner_; }

  /// Replays the winner's path to the root after its cursor moved on.
  void replay() noexcept {
    std::size_t cur = winner_;
    for (std::size_t n = (k_ + winner_) / 2; n >= 1; n /= 2) {
      if (beats(loser_[n], cur)) std::swap(cur, loser_[n]);
    }
    winner_ = cur;
  }

 private:
  /// Strict "cursor a's head sorts before cursor b's" by (key, shard id),
  /// a total order across parts.  Exhausted cursors and padding slots lose
  /// every match.
  [[nodiscard]] bool beats(std::size_t a, std::size_t b) const noexcept {
    if (a == kNone || cursors_[a].exhausted()) return false;
    if (b == kNone || cursors_[b].exhausted()) return true;
    const Cursor& x = cursors_[a];
    const Cursor& y = cursors_[b];
    return x.head != y.head ? x.head < y.head : x.id < y.id;
  }

  const std::vector<Cursor>& cursors_;
  std::size_t k_ = 1;
  std::vector<std::size_t> loser_;
  std::size_t winner_ = kNone;
};

/// Appends the live shards' `rows` to `table` in (key, shard id, append
/// index) order and returns where each shard's rows landed.  Only a shard
/// whose rows are out of key order is index-sorted.  If the non-empty
/// shards' key ranges chain without overlap, they are concatenated: a shard
/// in key order moves its vector into an empty table and is appended to any
/// other.  Otherwise one loser tree merges them, and `interleaved` counts
/// the table.
template <class Record>
std::vector<Placement> merge_table(std::vector<Record>& table,
                                   const std::vector<EventShard*>& live,
                                   std::vector<Record> EventShard::*rows,
                                   Nanoseconds Record::*key, std::size_t& interleaved) {
  std::vector<Part<Record>> parts(live.size());
  std::vector<Placement> placed(live.size());
  std::vector<std::size_t> chain;  // the non-empty parts
  for (std::size_t s = 0; s < live.size(); ++s) {
    Part<Record>& p = parts[s];
    p.rows = &(live[s]->*rows);
    p.id = live[s]->shard_id();
    placed[s].count = p.size();
    if (p.size() == 0) continue;
    chain.push_back(s);
    if (in_key_order(*p.rows, key)) continue;
    p.order.resize(p.size());
    std::iota(p.order.begin(), p.order.end(), std::size_t{0});
    std::stable_sort(p.order.begin(), p.order.end(), [&](std::size_t a, std::size_t b) {
      return (*p.rows)[a].*key < (*p.rows)[b].*key;
    });
  }

  // Chained means: ordered by first key, each part ending before the next
  // begins, or on its first key when the earlier part has the lower id.
  const auto first = [&](std::size_t s) { return parts[s].row(0).*key; };
  const auto last = [&](std::size_t s) { return parts[s].row(parts[s].size() - 1).*key; };
  std::sort(chain.begin(), chain.end(), [&](std::size_t a, std::size_t b) {
    return first(a) != first(b) ? first(a) < first(b) : parts[a].id < parts[b].id;
  });
  bool chained = true;
  for (std::size_t i = 1; chained && i < chain.size(); ++i) {
    const Nanoseconds end = last(chain[i - 1]);
    const Nanoseconds begin = first(chain[i]);
    chained = end < begin || (end == begin && parts[chain[i - 1]].id < parts[chain[i]].id);
  }

  if (chained) {
    for (const std::size_t s : chain) {
      Part<Record>& p = parts[s];
      Placement& where = placed[s];
      where.base = table.size();
      if (!p.order.empty()) {
        where.at.resize(p.size());
        table.reserve(table.size() + p.size());
        for (std::size_t j = 0; j < p.size(); ++j) {
          where.at[p.order[j]] = table.size();
          table.push_back((*p.rows)[p.order[j]]);
        }
      } else if (table.empty()) {
        table = std::move(*p.rows);
      } else {
        table.insert(table.end(), p.rows->begin(), p.rows->end());
      }
    }
    return placed;
  }

  ++interleaved;
  std::vector<Cursor> cursors;
  std::size_t total = 0;
  for (const std::size_t s : chain) {
    cursors.push_back(Cursor{s, 0, parts[s].size(), first(s), parts[s].id});
    placed[s].at.resize(parts[s].size());
    total += parts[s].size();
  }
  table.reserve(table.size() + total);
  LoserTree tree(cursors);
  for (std::size_t n = 0; n < total; ++n) {
    Cursor& c = cursors[tree.top()];
    const Part<Record>& p = parts[c.part];
    const std::size_t local = p.local(c.pos);
    placed[c.part].at[local] = table.size();
    table.push_back((*p.rows)[local]);
    if (++c.pos < c.end) c.head = p.row(c.pos).*key;
    tree.replay();
  }
  return placed;
}

/// Rewrites the shard-local call reference `ref` of every row the shards
/// placed into `table` to the global index its call landed at.
template <class Record>
void remap_refs(std::vector<Record>& table, const std::vector<Placement>& placed,
                const std::vector<Placement>& call_placed, CallIndex Record::*ref) {
  for (std::size_t s = 0; s < placed.size(); ++s) {
    const Placement& calls = call_placed[s];
    if (calls.at.empty() && calls.base == 0) continue;  // calls kept their indices
    for (std::size_t i = 0; i < placed[s].count; ++i) {
      CallIndex& r = table[placed[s][i]].*ref;
      if (r != kNoParent) r = static_cast<CallIndex>(calls[static_cast<std::size_t>(r)]);
    }
  }
}

}  // namespace

TraceDatabase::TraceDatabase(TraceDatabase&& other) noexcept {
  std::scoped_lock lock(mu_, other.mu_);
  calls_ = std::move(other.calls_);
  aexs_ = std::move(other.aexs_);
  paging_ = std::move(other.paging_);
  syncs_ = std::move(other.syncs_);
  enclaves_ = std::move(other.enclaves_);
  call_names_ = std::move(other.call_names_);
  metric_series_ = std::move(other.metric_series_);
  metric_samples_ = std::move(other.metric_samples_);
  latencies_ = std::move(other.latencies_);
  windows_ = std::move(other.windows_);
  window_sites_ = std::move(other.window_sites_);
  alerts_ = std::move(other.alerts_);
  order_rules_ = std::move(other.order_rules_);
  window_period_ = other.window_period_;
  dropped_events_ = other.dropped_events_;
  stream_dropped_ = other.stream_dropped_;
  shards_ = std::move(other.shards_);
  merge_stats_ = other.merge_stats_;
  other.shards_.clear();
  other.merge_stats_ = MergeStats{};
  other.dropped_events_ = 0;
  other.stream_dropped_ = 0;
  other.window_period_ = 0;
}

CallIndex TraceDatabase::add_call(const CallRecord& rec) {
  std::lock_guard lock(mu_);
  calls_.push_back(rec);
  return static_cast<CallIndex>(calls_.size() - 1);
}

void TraceDatabase::finish_call(CallIndex idx, Nanoseconds end_ns, std::uint32_t aex_count) {
  std::lock_guard lock(mu_);
  auto& rec = calls_.at(static_cast<std::size_t>(idx));
  rec.end_ns = end_ns;
  rec.aex_count = aex_count;
}

void TraceDatabase::set_call_kind(CallIndex idx, OcallKind kind) {
  std::lock_guard lock(mu_);
  calls_.at(static_cast<std::size_t>(idx)).kind = kind;
}

void TraceDatabase::add_aex(const AexRecord& rec) {
  std::lock_guard lock(mu_);
  aexs_.push_back(rec);
}

void TraceDatabase::add_paging(const PagingRecord& rec) {
  std::lock_guard lock(mu_);
  paging_.push_back(rec);
}

void TraceDatabase::add_sync(const SyncRecord& rec) {
  std::lock_guard lock(mu_);
  syncs_.push_back(rec);
}

void TraceDatabase::add_enclave(const EnclaveRecord& rec) {
  std::lock_guard lock(mu_);
  enclaves_.push_back(rec);
}

void TraceDatabase::set_enclave_destroyed(EnclaveId id, Nanoseconds when) {
  std::lock_guard lock(mu_);
  for (auto& e : enclaves_) {
    if (e.enclave_id == id) {
      e.destroyed_ns = when;
      return;
    }
  }
}

void TraceDatabase::add_call_name(const CallNameRecord& rec) {
  std::lock_guard lock(mu_);
  for (const auto& existing : call_names_) {
    if (existing.enclave_id == rec.enclave_id && existing.type == rec.type &&
        existing.call_id == rec.call_id) {
      return;  // idempotent registration
    }
  }
  call_names_.push_back(rec);
}

EventShard& TraceDatabase::register_shard(ThreadId owner_thread, std::size_t owner_slot) {
  std::lock_guard lock(mu_);
  const auto id = static_cast<ShardId>(shards_.size());
  shards_.push_back(std::make_unique<EventShard>(id, owner_thread, owner_slot));
  db_metrics().shards_registered.add();
  return *shards_.back();
}

MetricSeriesId TraceDatabase::add_metric_series(MetricKind kind, const std::string& name,
                                                const std::string& unit) {
  std::lock_guard lock(mu_);
  for (const auto& s : metric_series_) {
    if (s.name == name) return s.series_id;  // idempotent registration
  }
  MetricSeriesRecord rec;
  rec.series_id = static_cast<MetricSeriesId>(metric_series_.size());
  rec.kind = kind;
  rec.name = name;
  rec.unit = unit;
  metric_series_.push_back(std::move(rec));
  return metric_series_.back().series_id;
}

void TraceDatabase::add_metric_sample(const MetricSampleRecord& rec) {
  std::lock_guard lock(mu_);
  metric_samples_.push_back(rec);
}

void TraceDatabase::set_latency(const LatencyRecord& rec) {
  std::lock_guard lock(mu_);
  for (auto& existing : latencies_) {
    if (existing.enclave_id == rec.enclave_id && existing.type == rec.type &&
        existing.call_id == rec.call_id) {
      existing = rec;
      return;
    }
  }
  latencies_.push_back(rec);
}

void TraceDatabase::fold_call_latencies(std::size_t first_call) {
  std::lock_guard lock(mu_);
  using SiteKey = std::tuple<EnclaveId, CallType, CallId>;
  std::map<SiteKey, telemetry::HdrSnapshot> sites;
  for (std::size_t i = first_call; i < calls_.size(); ++i) {
    const CallRecord& c = calls_[i];
    sites[{c.enclave_id, c.type, c.call_id}].record(c.duration());
  }
  for (auto& [key, snap] : sites) {
    const auto& [enclave, type, call_id] = key;
    const auto row = std::find_if(latencies_.begin(), latencies_.end(), [&](const auto& l) {
      return l.enclave_id == enclave && l.type == type && l.call_id == call_id;
    });
    if (row == latencies_.end()) {
      latencies_.push_back(latency_record(enclave, type, call_id, snap));
    } else {
      snap.merge(snapshot_of(*row));
      *row = latency_record(enclave, type, call_id, snap);
    }
  }
}

const LatencyRecord* TraceDatabase::find_latency(EnclaveId enclave, CallType type,
                                                 CallId call_id) const {
  std::lock_guard lock(mu_);
  for (const auto& rec : latencies_) {
    if (rec.enclave_id == enclave && rec.type == type && rec.call_id == call_id) return &rec;
  }
  return nullptr;
}

void TraceDatabase::set_stream_dropped(std::uint64_t n) {
  std::lock_guard lock(mu_);
  stream_dropped_ = n;
}

std::uint64_t TraceDatabase::stream_dropped() const {
  std::lock_guard lock(mu_);
  return stream_dropped_;
}

void TraceDatabase::set_window_period(Nanoseconds period_ns) {
  std::lock_guard lock(mu_);
  window_period_ = period_ns;
}

Nanoseconds TraceDatabase::window_period() const {
  std::lock_guard lock(mu_);
  return window_period_;
}

void TraceDatabase::add_window(const WindowRecord& rec) {
  std::lock_guard lock(mu_);
  windows_.push_back(rec);
}

void TraceDatabase::add_window_site(const WindowSiteRecord& rec) {
  std::lock_guard lock(mu_);
  window_sites_.push_back(rec);
}

void TraceDatabase::add_alert(const AlertRecord& rec) {
  std::lock_guard lock(mu_);
  alerts_.push_back(rec);
}

void TraceDatabase::add_order_rule(const OrderRuleRecord& rec) {
  std::lock_guard lock(mu_);
  order_rules_.push_back(rec);
}

void TraceDatabase::set_order_rules(std::vector<OrderRuleRecord> rules) {
  std::lock_guard lock(mu_);
  order_rules_ = std::move(rules);
}

std::uint64_t TraceDatabase::dropped_events() const {
  std::lock_guard lock(mu_);
  return dropped_events_;
}

TraceDatabase::MergeStats TraceDatabase::merge_shards() {
  std::lock_guard lock(mu_);
  const auto merge_start = std::chrono::steady_clock::now();
  MergeStats round;
  round.merges = 1;

  std::vector<EventShard*> live;
  for (auto& s : shards_) {
    if (!s->sealed()) db_metrics().shard_seals.add();
    s->seal();
    if (!s->drained()) live.push_back(s.get());
  }
  for (const EventShard* s : live) {
    if (s->events_recorded() > 0) ++round.shards_merged;
    round.calls += s->calls_.size();
    round.aexs += s->aexs_.size();
    round.paging += s->paging_.size();
    round.syncs += s->syncs_.size();
  }

  // Every table is ordered by (key, shard registration order, append order),
  // a unique total order, so the merged sequence is deterministic.  Calls go
  // first: their placements remap the parent and during_call references.
  const auto call_at =
      merge_table(calls_, live, &EventShard::calls_, &CallRecord::start_ns, round.interleaved);
  remap_refs(calls_, call_at, call_at, &CallRecord::parent);
  remap_refs(aexs_,
             merge_table(aexs_, live, &EventShard::aexs_, &AexRecord::timestamp_ns,
                         round.interleaved),
             call_at, &AexRecord::during_call);
  (void)merge_table(paging_, live, &EventShard::paging_, &PagingRecord::timestamp_ns,
                    round.interleaved);
  (void)merge_table(syncs_, live, &EventShard::syncs_, &SyncRecord::timestamp_ns,
                    round.interleaved);

  // --- drain ----------------------------------------------------------------
  for (EventShard* s : live) {
    s->calls_.clear();
    s->aexs_.clear();
    s->paging_.clear();
    s->syncs_.clear();
    s->drained_ = true;
  }

  // Collect late-writer drops from *every* shard — drained husks included,
  // since a writer can race the previous merge and drop into a husk — and
  // zero the per-shard tallies so each drop is counted exactly once.
  for (auto& s : shards_) {
    round.dropped += s->events_dropped();
    s->dropped_ = 0;
  }

  merge_stats_.merges += round.merges;
  merge_stats_.shards_merged += round.shards_merged;
  merge_stats_.calls += round.calls;
  merge_stats_.aexs += round.aexs;
  merge_stats_.paging += round.paging;
  merge_stats_.syncs += round.syncs;
  merge_stats_.interleaved += round.interleaved;
  merge_stats_.dropped += round.dropped;
  dropped_events_ += round.dropped;

  auto& tm = db_metrics();
  tm.merges.add();
  tm.merge_records.add(round.calls + round.aexs + round.paging + round.syncs);
  if (round.dropped > 0) tm.events_dropped.add(round.dropped);
  tm.merge_ns.observe(ns_since(merge_start));
  return round;
}

void TraceDatabase::reopen_shards() {
  std::lock_guard lock(mu_);
  for (auto& s : shards_) {
    if (s->drained()) s->reset();
  }
}

TraceDatabase::MergeStats TraceDatabase::merge_stats() const {
  std::lock_guard lock(mu_);
  return merge_stats_;
}

std::size_t TraceDatabase::shard_count() const {
  std::lock_guard lock(mu_);
  return shards_.size();
}

std::string TraceDatabase::name_of(EnclaveId enclave, CallType type, CallId id) const {
  std::lock_guard lock(mu_);
  for (const auto& rec : call_names_) {
    if (rec.enclave_id == enclave && rec.type == type && rec.call_id == id) return rec.name;
  }
  return support::format("%s_%u", type == CallType::kEcall ? "ecall" : "ocall", id);
}

void TraceDatabase::clear() {
  std::lock_guard lock(mu_);
  calls_.clear();
  aexs_.clear();
  paging_.clear();
  syncs_.clear();
  enclaves_.clear();
  call_names_.clear();
  metric_series_.clear();
  metric_samples_.clear();
  latencies_.clear();
  windows_.clear();
  window_sites_.clear();
  alerts_.clear();
  order_rules_.clear();
  window_period_ = 0;
  dropped_events_ = 0;
  stream_dropped_ = 0;
  for (auto& s : shards_) s->reset();
  merge_stats_ = MergeStats{};
}

}  // namespace tracedb
