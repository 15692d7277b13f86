#include "tracedb/database.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>
#include <tuple>

#include "support/strutil.hpp"
#include "telemetry/hdr_histogram.hpp"
#include "tracedb/merge.hpp"
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

/// True if no row's key is smaller than the key of the row before it.
template <class Record>
bool in_key_order(const std::vector<Record>& rows, Nanoseconds Record::*key) {
  return std::is_sorted(rows.begin(), rows.end(),
                        [key](const Record& a, const Record& b) { return a.*key < b.*key; });
}

/// Moves `rows` onto the end of `table` (taking the buffer itself when
/// `table` is empty), leaves `rows` empty and returns how many rows moved.
template <class Record>
std::size_t take_rows(std::vector<Record>& table, std::vector<Record>& rows) {
  const std::size_t n = rows.size();
  if (table.empty()) {
    table = std::move(rows);
  } else {
    table.insert(table.end(), rows.begin(), rows.end());
  }
  rows.clear();
  return n;
}

/// Adds `base` to the call reference `ref` of the last `n` rows of `table`,
/// except where it is kNoParent.
template <class Record>
void rebase_refs(std::vector<Record>& table, std::size_t n, CallIndex Record::*ref,
                 CallIndex base) {
  if (base == 0) return;
  for (auto it = table.end() - static_cast<std::ptrdiff_t>(n); it != table.end(); ++it) {
    if ((*it).*ref != kNoParent) (*it).*ref += base;
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
  merge_threads_ = other.merge_threads_;
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

void TraceDatabase::set_merge_threads(std::size_t n) {
  std::lock_guard lock(mu_);
  merge_threads_ = n;
}

std::uint64_t TraceDatabase::dropped_events() const {
  std::lock_guard lock(mu_);
  return dropped_events_;
}

void TraceDatabase::merge_by_key(const std::vector<EventShard*>& live, MergeStats& round) {
  std::vector<std::uint32_t> shard_ids;
  shard_ids.reserve(live.size());
  for (const EventShard* s : live) shard_ids.push_back(s->shard_id());

  // --- calls: sort by start time, remap local parent references ------------
  {
    std::vector<std::vector<Nanoseconds>> keys(live.size());
    for (std::size_t s = 0; s < live.size(); ++s) {
      keys[s].reserve(live[s]->calls().size());
      for (const auto& c : live[s]->calls()) keys[s].push_back(c.start_ns);
    }
    const auto order = parallel_merge_order(keys, shard_ids, merge_threads_);

    std::vector<std::vector<CallIndex>> remap(live.size());
    for (std::size_t s = 0; s < live.size(); ++s) remap[s].resize(live[s]->calls_.size());
    calls_.reserve(calls_.size() + order.size());
    for (const auto& ref : order) {
      remap[ref.shard][ref.local] = static_cast<CallIndex>(calls_.size());
      calls_.push_back(live[ref.shard]->calls_[ref.local]);
    }
    for (const auto& ref : order) {
      auto& rec = calls_[static_cast<std::size_t>(remap[ref.shard][ref.local])];
      if (rec.parent != kNoParent) {
        rec.parent = remap[ref.shard][static_cast<std::size_t>(rec.parent)];
      }
    }
    round.calls = order.size();

    // --- AEXs: sort by timestamp, remap during_call through the same map ---
    std::vector<std::vector<Nanoseconds>> aex_keys(live.size());
    for (std::size_t s = 0; s < live.size(); ++s) {
      for (const auto& a : live[s]->aexs()) aex_keys[s].push_back(a.timestamp_ns);
    }
    const auto aex_order = parallel_merge_order(aex_keys, shard_ids, merge_threads_);
    aexs_.reserve(aexs_.size() + aex_order.size());
    for (const auto& ref : aex_order) {
      AexRecord rec = live[ref.shard]->aexs_[ref.local];
      if (rec.during_call != kNoParent) {
        rec.during_call = remap[ref.shard][static_cast<std::size_t>(rec.during_call)];
      }
      aexs_.push_back(rec);
    }
    round.aexs = aex_order.size();
  }

  // --- paging / sync: time-sorted stitches, no references to remap ---------
  {
    std::vector<std::vector<Nanoseconds>> keys(live.size());
    for (std::size_t s = 0; s < live.size(); ++s) {
      for (const auto& p : live[s]->paging()) keys[s].push_back(p.timestamp_ns);
    }
    const auto order = parallel_merge_order(keys, shard_ids, merge_threads_);
    paging_.reserve(paging_.size() + order.size());
    for (const auto& ref : order) paging_.push_back(live[ref.shard]->paging_[ref.local]);
    round.paging = order.size();
  }
  {
    std::vector<std::vector<Nanoseconds>> keys(live.size());
    for (std::size_t s = 0; s < live.size(); ++s) {
      for (const auto& rec : live[s]->syncs()) keys[s].push_back(rec.timestamp_ns);
    }
    const auto order = parallel_merge_order(keys, shard_ids, merge_threads_);
    syncs_.reserve(syncs_.size() + order.size());
    for (const auto& ref : order) syncs_.push_back(live[ref.shard]->syncs_[ref.local]);
    round.syncs = order.size();
  }
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
  EventShard* lone = nullptr;  // the only live shard with events, if one is
  for (EventShard* s : live) {
    if (s->events_recorded() == 0) continue;
    ++round.shards_merged;
    lone = round.shards_merged == 1 ? s : nullptr;
  }

  // Timestamp ties resolve to shard registration order then append order
  // inside merge.cpp's tournament merge, which makes the merged sequence
  // deterministic (and byte-identical for any merge_threads_ setting).
  // So a lone shard whose four tables are each in key order merges to the
  // identity: its rows move over as they are, and its local call indices
  // shift by the calls merged before.  One recording thread gives exactly
  // that, since its clock only moves forward.
  if (lone != nullptr && in_key_order(lone->calls_, &CallRecord::start_ns) &&
      in_key_order(lone->aexs_, &AexRecord::timestamp_ns) &&
      in_key_order(lone->paging_, &PagingRecord::timestamp_ns) &&
      in_key_order(lone->syncs_, &SyncRecord::timestamp_ns)) {
    const auto base = static_cast<CallIndex>(calls_.size());
    round.calls = take_rows(calls_, lone->calls_);
    rebase_refs(calls_, round.calls, &CallRecord::parent, base);
    round.aexs = take_rows(aexs_, lone->aexs_);
    rebase_refs(aexs_, round.aexs, &AexRecord::during_call, base);
    round.paging = take_rows(paging_, lone->paging_);
    round.syncs = take_rows(syncs_, lone->syncs_);
  } else {
    merge_by_key(live, round);
  }

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
