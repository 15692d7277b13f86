#include "replay/engine.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace replay {

using sgxsim::CostModel;
using tracedb::CallIndex;
using tracedb::CallKey;
using tracedb::CallRecord;
using tracedb::CallType;
using tracedb::kNoParent;

namespace {

/// key of the call record at `idx`.
CallKey key_of(const CallRecord& c) noexcept {
  return CallKey{c.enclave_id, c.type, c.call_id};
}

/// Worker-ns a switchless pool idles over a replayed span.
void set_wasted_worker_ns(SwitchlessOutcome& o, std::uint64_t span) noexcept {
  const std::uint64_t pool = static_cast<std::uint64_t>(o.workers) * span;
  o.wasted_worker_ns = pool > o.busy_ns ? pool - o.busy_ns : 0;
}

/// u + d, saturating at 0 from below.
std::uint64_t clamp_add(std::uint64_t u, std::int64_t d) noexcept {
  if (d >= 0) return u + static_cast<std::uint64_t>(d);
  const auto neg = static_cast<std::uint64_t>(-d);
  return u > neg ? u - neg : 0;
}

}  // namespace

ReplayEngine::ReplayEngine(const tracedb::TraceDatabase& db, const tracedb::TraceIndex& index,
                           ReplayConfig config)
    : db_(db), config_(config), index_(index) {
  const auto& calls = db_.calls();
  const std::size_t n = calls.size();
  if (index_.indirect.size() != n) {
    throw std::invalid_argument("replay: the index describes another trace");
  }

  // Self times, one forward pass: trace order is start order (merged traces
  // are globally time-sorted), so each call meets its children in start
  // order, and end[p] tracks the latest end among p's children seen so far
  // (p's start before the first).  Parents must precede their children.
  self_ns_.assign(n, 0);
  std::vector<std::uint64_t> end(n);
  std::uint64_t min_start = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_end = 0;
  bool start_ordered = true;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& c = calls[i];
    start_ordered = start_ordered && (i == 0 || c.start_ns >= calls[i - 1].start_ns);
    min_start = std::min(min_start, c.start_ns);
    max_end = std::max(max_end, c.end_ns);
    end[i] = c.start_ns;
    if (c.parent == kNoParent) continue;
    if (c.parent < 0 || static_cast<std::size_t>(c.parent) >= i) {
      throw std::invalid_argument("replay: call " + std::to_string(i) + " has parent " +
                                  std::to_string(c.parent) + ", not an earlier call");
    }
    const auto p = static_cast<std::size_t>(c.parent);
    if (c.start_ns > end[p]) self_ns_[p] += c.start_ns - end[p];
    end[p] = std::max(end[p], c.end_ns);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (calls[i].end_ns > end[i]) self_ns_[i] += calls[i].end_ns - end[i];
  }
  if (n > 0) {
    recorded_start_ = min_start;
    recorded_span_ = max_end - min_start;
  }

  // Identity durations, children before parents (end[] is reused), then each
  // thread's top-level sequence: the first call keeps its recorded start and
  // every later one follows the previous end after the recorded gap.
  for (std::size_t i = 0; i < n; ++i) end[i] = self_ns_[i];
  for (std::size_t i = n; i-- > 0;) {
    if (calls[i].parent != kNoParent) end[static_cast<std::size_t>(calls[i].parent)] += end[i];
  }
  struct Tail {
    std::uint64_t identity_end = 0;
    std::uint64_t recorded_end = 0;
  };
  std::map<tracedb::ThreadId, Tail> tails;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& c = calls[i];
    if (c.parent != kNoParent) continue;
    const auto [it, first] = tails.try_emplace(c.thread_id);
    Tail& t = it->second;
    const std::uint64_t gap = c.start_ns >= t.recorded_end ? c.start_ns - t.recorded_end : 0;
    const std::uint64_t start = first ? c.start_ns : t.identity_end + gap;
    t.identity_end = start + end[i];
    t.recorded_end = c.end_ns;
  }
  std::uint64_t identity_end = 0;
  for (const auto& [thread, t] : tails) {
    sequences_.push_back(Sequence{thread, t.identity_end});
    identity_end = std::max(identity_end, t.identity_end);
  }
  identity_span_ = identity_end > recorded_start_ ? identity_end - recorded_start_ : 0;
  end = {};

  // Paging attribution: the innermost recorded call of the same enclave whose
  // window contains the fault timestamp.  Paging records carry no thread id,
  // so "innermost" means latest-starting containing call across all threads.
  const auto& paging = db_.paging();
  paging_call_.assign(paging.size(), kNoParent);
  const auto start_before = [](std::uint64_t t, const CallRecord& c) { return t < c.start_ns; };
  std::size_t after = 0;  // calls[after] is the first call starting after the previous fault
  std::uint64_t prev_ts = 0;
  for (std::size_t p = 0; p < paging.size(); ++p) {
    const auto& pr = paging[p];
    if (pr.direction == tracedb::PageDirection::kPageIn) ++page_ins_;
    // Faults come in time order, so the first call starting after this one
    // is found by walking on from the previous fault's.  A fault out of
    // order, or calls out of start order, fall back to a binary search.
    if (start_ordered && pr.timestamp_ns >= prev_ts) {
      while (after < n && calls[after].start_ns <= pr.timestamp_ns) ++after;
    } else {
      after = static_cast<std::size_t>(
          std::upper_bound(calls.begin(), calls.end(), pr.timestamp_ns, start_before) -
          calls.begin());
    }
    prev_ts = pr.timestamp_ns;
    auto i = after;
    // Bounded backwards scan; containing calls nest, so the first hit (the
    // latest start at or before the fault) is the innermost.
    for (std::size_t scanned = 0; i > 0 && scanned < 4096; ++scanned) {
      --i;
      const auto& c = calls[i];
      if (c.enclave_id == pr.enclave_id && c.start_ns <= pr.timestamp_ns &&
          c.end_ns > pr.timestamp_ns) {
        paging_call_[p] = static_cast<CallIndex>(i);
        break;
      }
    }
  }
}

const tracedb::CallInstances& ReplayEngine::instances_of(const CallKey& site) const {
  static const tracedb::CallInstances kNone;
  const auto it = index_.sites.find(site);
  return it != index_.sites.end() ? it->second : kNone;
}

std::uint64_t ReplayEngine::apply_passes(const Scenario& scenario, Deltas& deltas,
                                         ScenarioResult& result) const {
  const auto& calls = db_.calls();
  const CostModel& old_cost = config_.recorded_cost;
  std::uint64_t unattributed_saved = 0;

  // Consecutive deltas on one call (an ocall storm's parent) share an entry.
  const auto add = [&deltas](CallIndex idx, std::int64_t d) {
    if (!deltas.empty() && deltas.back().first == idx) {
      deltas.back().second += d;
    } else {
      deltas.emplace_back(idx, d);
    }
  };
  // Ocall transition costs live in the *parent ecall's* self time (§4.1.2:
  // ocall timestamps exclude the transitions around the untrusted stub), so
  // ocall-site deltas are written onto the direct parent when there is one.
  const auto add_ocall_delta = [&](CallIndex idx, std::int64_t d) {
    const CallIndex parent = calls[static_cast<std::size_t>(idx)].parent;
    add(parent != kNoParent ? parent : idx, d);
  };
  const auto full_ecall = static_cast<std::int64_t>(old_cost.full_ecall_ns());
  const auto full_ocall = static_cast<std::int64_t>(old_cost.full_ocall_ns());

  // --- switchless conversion (worker occupancy included) --------------------
  for (const auto& spec : scenario.switchless) {
    SwitchlessOutcome outcome;
    outcome.site = spec.site;
    outcome.site_name =
        db_.name_of(spec.site.enclave_id, spec.site.type, spec.site.call_id);
    outcome.workers = std::max<std::size_t>(1, spec.workers);
    if (spec.site.type != CallType::kEcall) {  // only ecalls have a fast path
      result.switchless.push_back(std::move(outcome));
      continue;
    }
    const auto gain = static_cast<std::int64_t>(old_cost.switchless_call_ns) - full_ecall;
    std::vector<std::uint64_t> busy_until(outcome.workers, 0);
    for (const CallIndex i : instances_of(spec.site)) {
      const auto& c = calls[static_cast<std::size_t>(i)];
      // Earliest-available worker; ties resolve to the lowest index.
      std::size_t w = 0;
      for (std::size_t j = 1; j < busy_until.size(); ++j) {
        if (busy_until[j] < busy_until[w]) w = j;
      }
      if (busy_until[w] > c.start_ns) {
        ++outcome.fallbacks;  // all workers busy: full transition stays
        continue;
      }
      add(i, gain);
      const std::uint64_t serve =
          std::max(clamp_add(c.duration(), gain), old_cost.switchless_call_ns);
      busy_until[w] = c.start_ns + serve;
      outcome.busy_ns += serve;
      ++outcome.served;
      ++result.transitions_removed;
    }
    result.switchless.push_back(std::move(outcome));
  }

  // --- eliminate transitions (move caller in / out) --------------------------
  for (const auto& spec : scenario.eliminate) {
    for (const CallIndex i : instances_of(spec.site)) {
      const auto& c = calls[static_cast<std::size_t>(i)];
      if (c.type == CallType::kEcall) {
        const auto aex_ns = static_cast<std::int64_t>(c.aex_count) *
                            static_cast<std::int64_t>(old_cost.aex_ns);
        add(i, -(full_ecall + aex_ns));
      } else {
        add_ocall_delta(i, -full_ocall);
      }
      ++result.transitions_removed;
    }
  }

  // --- Eq.3 batch / merge into the indirect parent ---------------------------
  for (const auto& spec : scenario.merge) {
    for (const CallIndex i : instances_of(spec.site)) {
      const CallIndex ip = index_.indirect[static_cast<std::size_t>(i)];
      if (ip == kNoParent) continue;  // first of its run keeps its transition
      if (spec.partner &&
          key_of(calls[static_cast<std::size_t>(ip)]) != *spec.partner) {
        continue;
      }
      if (calls[static_cast<std::size_t>(i)].type == CallType::kEcall) {
        add(i, -full_ecall);
      } else {
        add_ocall_delta(i, -full_ocall);
      }
      ++result.transitions_removed;
    }
  }

  // --- transition-cost profile swap (§2.3.1) ---------------------------------
  if (scenario.cost_profile) {
    const CostModel new_cost = CostModel::preset(*scenario.cost_profile);
    const auto d_ecall = static_cast<std::int64_t>(new_cost.full_ecall_ns()) - full_ecall;
    const auto d_ocall = static_cast<std::int64_t>(new_cost.full_ocall_ns()) - full_ocall;
    const auto d_aex = static_cast<std::int64_t>(new_cost.aex_ns) -
                       static_cast<std::int64_t>(old_cost.aex_ns);
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const auto& c = calls[i];
      if (c.type == CallType::kEcall) {
        add(static_cast<CallIndex>(i), d_ecall + static_cast<std::int64_t>(c.aex_count) * d_aex);
      } else {
        add_ocall_delta(static_cast<CallIndex>(i), d_ocall);
      }
    }
  }

  // --- EPC resize: LRU over the recorded fault sequence ----------------------
  result.page_faults_before = page_ins_;
  result.page_faults_after = page_ins_;
  if (scenario.epc_pages) {
    const auto& paging = db_.paging();
    const std::size_t capacity = std::max<std::size_t>(1, *scenario.epc_pages);
    const std::uint64_t saved_per_fault = old_cost.page_fault_ns + old_cost.page_in_ns;
    // Per-enclave LRU keyed by fault recency (the only recency signal the
    // trace has).  Every touch queues (tick, page); an entry goes stale when
    // its page is touched again or evicted, so the first entry still
    // matching its page's tick is the least recently used resident page.
    // An entry leaves the queue only when an eviction pops it, so the queue
    // is O(page-ins), the size of paging_call_.
    struct Lru {
      std::unordered_map<std::uint64_t, std::uint64_t> tick_of;  // resident page -> last tick
      std::deque<std::pair<std::uint64_t, std::uint64_t>> order;  // (tick, page), oldest first
    };
    std::map<tracedb::EnclaveId, Lru> lru;
    std::uint64_t tick = 0;
    for (std::size_t p = 0; p < paging.size(); ++p) {
      const auto& pr = paging[p];
      if (pr.direction != tracedb::PageDirection::kPageIn) continue;
      Lru& l = lru[pr.enclave_id];
      ++tick;
      l.order.emplace_back(tick, pr.page_number);
      if (const auto [it, inserted] = l.tick_of.try_emplace(pr.page_number, tick); !inserted) {
        // Still resident at this capacity: the recorded fault disappears.
        it->second = tick;
        --result.page_faults_after;
        if (paging_call_[p] != kNoParent) {
          add(paging_call_[p], -static_cast<std::int64_t>(saved_per_fault));
        } else {
          unattributed_saved += saved_per_fault;
        }
        continue;
      }
      if (l.tick_of.size() > capacity) {
        for (;;) {
          const auto [t, page] = l.order.front();
          l.order.pop_front();
          if (const auto victim = l.tick_of.find(page);
              victim != l.tick_of.end() && victim->second == t) {
            l.tick_of.erase(victim);
            break;
          }
        }
      }
    }
  }
  return unattributed_saved;
}

std::uint64_t ReplayEngine::span_under(Deltas& deltas) const {
  const auto& calls = db_.calls();
  if (calls.empty()) return 0;
  // A call's self time absorbs its summed delta down to zero, and nothing
  // else about it moves: its children keep their recorded gaps and its own
  // start shifts with whatever ran before it.  So each thread's last end
  // moves by the sum, over the calls under its top-level sequence, of
  // max(-self, delta).  Passes write deltas mostly in index order.
  const auto by_call = [](const auto& a, const auto& b) { return a.first < b.first; };
  if (!std::is_sorted(deltas.begin(), deltas.end(), by_call)) {
    std::sort(deltas.begin(), deltas.end(), by_call);
  }
  std::vector<std::int64_t> shift(sequences_.size(), 0);
  for (std::size_t k = 0; k < deltas.size();) {
    const CallIndex idx = deltas[k].first;
    std::int64_t d = 0;
    for (; k < deltas.size() && deltas[k].first == idx; ++k) d += deltas[k].second;
    d = std::max(d, -static_cast<std::int64_t>(self_ns_[static_cast<std::size_t>(idx)]));
    if (d == 0) continue;
    CallIndex root = idx;
    while (calls[static_cast<std::size_t>(root)].parent != kNoParent) {
      root = calls[static_cast<std::size_t>(root)].parent;
    }
    const auto seq = std::lower_bound(
        sequences_.begin(), sequences_.end(), calls[static_cast<std::size_t>(root)].thread_id,
        [](const Sequence& s, tracedb::ThreadId t) { return s.thread < t; });
    shift[static_cast<std::size_t>(seq - sequences_.begin())] += d;
  }
  std::uint64_t max_end = 0;
  for (std::size_t s = 0; s < sequences_.size(); ++s) {
    max_end = std::max(max_end,
                       sequences_[s].identity_end_ns + static_cast<std::uint64_t>(shift[s]));
  }
  return max_end > recorded_start_ ? max_end - recorded_start_ : 0;
}

ScenarioResult ReplayEngine::run(const Scenario& scenario) const {
  ScenarioResult result;
  result.name = scenario.name;
  result.recorded_span_ns = recorded_span_;

  Deltas deltas;
  const std::uint64_t unattributed = apply_passes(scenario, deltas, result);
  const std::uint64_t span = span_under(deltas);
  result.replayed_span_ns = span > unattributed ? span - unattributed : 0;

  for (auto& o : result.switchless) set_wasted_worker_ns(o, result.replayed_span_ns);
  return result;
}

ValidationResult ReplayEngine::validate() const {
  ValidationResult v;
  v.recorded_span_ns = recorded_span_;

  v.replayed_span_ns = identity_span_;
  if (v.recorded_span_ns > 0) {
    const auto diff = v.replayed_span_ns > v.recorded_span_ns
                          ? v.replayed_span_ns - v.recorded_span_ns
                          : v.recorded_span_ns - v.replayed_span_ns;
    v.span_error = static_cast<double>(diff) / static_cast<double>(v.recorded_span_ns);
  }

  // Model-consistency floor: a recorded ecall can never be shorter than its
  // own transitions plus its AEX round trips.
  const CostModel& cost = config_.recorded_cost;
  std::uint64_t deficit = 0;
  std::uint64_t total = 0;
  for (const auto& c : db_.calls()) {
    if (c.type != CallType::kEcall) continue;
    const std::uint64_t floor =
        cost.full_ecall_ns() + static_cast<std::uint64_t>(c.aex_count) * cost.aex_ns;
    total += c.duration();
    if (c.duration() < floor) {
      ++v.ecalls_below_floor;
      deficit += floor - c.duration();
    }
  }
  if (total > 0) v.floor_error = static_cast<double>(deficit) / static_cast<double>(total);
  return v;
}

SweepResult ReplayEngine::sweep_switchless(const CallKey& site, std::size_t min_workers,
                                           std::size_t max_workers) const {
  SweepResult sweep;
  sweep.site = site;
  sweep.site_name = db_.name_of(site.enclave_id, site.type, site.call_id);
  min_workers = std::max<std::size_t>(1, min_workers);
  max_workers = std::max(min_workers, max_workers);

  const auto name = [&](std::size_t w) {
    return "switchless " + sweep.site_name + " x" + std::to_string(w);
  };
  const std::size_t count = max_workers - min_workers + 1;
  sweep.points.reserve(count);

  // Replay counts in order until one has no fallbacks.  Each larger count
  // then serves exactly the same calls (the extra workers only ever add idle
  // slots), so its deltas, span, `served` and `busy_ns` match and only
  // `workers` and the idle time differ.
  for (std::size_t w = min_workers; w <= max_workers; ++w) {
    Scenario s;
    s.name = name(w);
    s.switchless.push_back(SwitchlessSpec{site, w});
    sweep.points.push_back(run(s));
    if (sweep.points.back().switchless.front().fallbacks == 0) break;
  }
  while (sweep.points.size() < count) {
    ScenarioResult point = sweep.points.back();
    const std::size_t w = min_workers + sweep.points.size();
    point.name = name(w);
    point.switchless.front().workers = w;
    set_wasted_worker_ns(point.switchless.front(), point.replayed_span_ns);
    sweep.points.push_back(std::move(point));
  }

  // Smallest worker count attaining the minimum span (strict integer
  // compare, so the choice is deterministic).
  std::size_t best = 0;
  for (std::size_t i = 1; i < sweep.points.size(); ++i) {
    if (sweep.points[i].replayed_span_ns < sweep.points[best].replayed_span_ns) best = i;
  }
  if (!sweep.points.empty()) {
    sweep.best_workers = min_workers + best;
    sweep.best_speedup = sweep.points[best].speedup();
  }
  return sweep;
}

tracedb::TraceDatabase ReplayEngine::materialize(const Scenario& scenario) const {
  const auto& calls = db_.calls();
  const std::size_t n = calls.size();
  ScenarioResult result;
  Deltas deltas;
  (void)apply_passes(scenario, deltas, result);
  std::vector<std::int64_t> delta(n, 0);
  for (const auto& [idx, d] : deltas) delta[static_cast<std::size_t>(idx)] += d;

  // The re-timing walk needs each call's children in start order: a
  // compressed sparse row index (a counting sort over `parent`; filling in
  // index order keeps start order).  child_begin[p] first holds the end of
  // p's range; the backwards fill walks it down to the start.
  std::vector<std::size_t> child_begin(n + 1, 0);
  for (const auto& c : calls) {
    if (c.parent != kNoParent) ++child_begin[static_cast<std::size_t>(c.parent)];
  }
  for (std::size_t p = 1; p <= n; ++p) child_begin[p] += child_begin[p - 1];
  std::vector<CallIndex> child_list(child_begin[n]);
  for (std::size_t i = n; i-- > 0;) {
    if (calls[i].parent == kNoParent) continue;
    child_list[--child_begin[static_cast<std::size_t>(calls[i].parent)]] =
        static_cast<CallIndex>(i);
  }

  tracedb::TraceDatabase out;
  for (const auto& e : db_.enclaves()) out.add_enclave(e);
  for (const auto& name : db_.call_names()) out.add_call_name(name);
  std::vector<CallRecord> retimed(calls);  // keeps type, ids, parent index, AEX count

  // Re-times the call tree rooted at `idx` from `new_start`, returning its
  // new end.  The call's self-time segments (before / between / after its
  // children) absorb its delta: a negative delta carries across segments
  // until absorbed, and whatever the total self time cannot absorb is
  // clamped.
  const auto retime_call = [&](const auto& self, std::size_t idx,
                               std::uint64_t new_start) -> std::uint64_t {
    const auto& c = calls[idx];
    std::uint64_t t = new_start;
    std::int64_t carry = delta[idx];
    std::uint64_t prev_end = c.start_ns;
    for (std::size_t k = child_begin[idx]; k < child_begin[idx + 1]; ++k) {
      const auto ch = static_cast<std::size_t>(child_list[k]);
      const auto& cc = calls[ch];
      std::uint64_t seg = cc.start_ns >= prev_end ? cc.start_ns - prev_end : 0;
      if (carry != 0) {
        const std::int64_t adjusted = static_cast<std::int64_t>(seg) + carry;
        if (adjusted < 0) {
          carry = adjusted;
          seg = 0;
        } else {
          seg = static_cast<std::uint64_t>(adjusted);
          carry = 0;
        }
      }
      t = self(self, ch, t + seg);
      prev_end = std::max(prev_end, cc.end_ns);
    }
    std::uint64_t tail = c.end_ns >= prev_end ? c.end_ns - prev_end : 0;
    if (carry != 0) tail = clamp_add(tail, carry);
    retimed[idx].start_ns = new_start;
    retimed[idx].end_ns = t + tail;
    return t + tail;
  };

  // Each thread's top-level calls in order: the first keeps its recorded
  // start (the lead-in is not ours to move), and each later one keeps the
  // recorded think time after its predecessor.
  struct Tail {
    std::uint64_t new_end = 0;
    std::uint64_t recorded_end = 0;
  };
  std::map<tracedb::ThreadId, Tail> tails;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& c = calls[i];
    if (c.parent != kNoParent) continue;
    const auto [it, first] = tails.try_emplace(c.thread_id);
    Tail& tail = it->second;
    const std::uint64_t gap = c.start_ns >= tail.recorded_end ? c.start_ns - tail.recorded_end : 0;
    const std::uint64_t start = first ? c.start_ns : tail.new_end + gap;
    tail.new_end = retime_call(retime_call, i, start);
    tail.recorded_end = c.end_ns;
  }
  for (const auto& rec : retimed) out.add_call(rec);
  return out;
}

}  // namespace replay
