#include "replay/engine.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <limits>
#include <map>
#include <thread>
#include <unordered_map>

#include "tracedb/query.hpp"

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

ReplayEngine::ReplayEngine(const tracedb::TraceDatabase& db, ReplayConfig config)
    : db_(db), config_(config) {
  const auto& calls = db_.calls();
  const std::size_t n = calls.size();

  // Children lists (a counting sort over `parent`) and per-thread top-level
  // sequences.  Trace order is start order (merged traces are globally
  // time-sorted), so filling in index order keeps every sequence
  // start-ordered.  child_begin_[p] first holds the end of p's range; the
  // backwards fill walks it down to the start.
  child_begin_.assign(n + 1, 0);
  for (const auto& c : calls) {
    if (c.parent != kNoParent) ++child_begin_[static_cast<std::size_t>(c.parent)];
  }
  for (std::size_t p = 1; p <= n; ++p) child_begin_[p] += child_begin_[p - 1];
  child_list_.resize(child_begin_[n]);
  for (std::size_t i = n; i-- > 0;) {
    if (calls[i].parent == kNoParent) continue;
    child_list_[--child_begin_[static_cast<std::size_t>(calls[i].parent)]] =
        static_cast<CallIndex>(i);
  }

  std::map<tracedb::ThreadId, std::size_t> thread_slot;
  std::uint64_t min_start = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_end = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& c = calls[i];
    min_start = std::min(min_start, c.start_ns);
    max_end = std::max(max_end, c.end_ns);
    if (c.parent == kNoParent) {
      const auto [it, inserted] = thread_slot.emplace(c.thread_id, top_level_.size());
      if (inserted) top_level_.emplace_back();
      top_level_[it->second].push_back(static_cast<CallIndex>(i));
    }
  }
  if (!calls.empty()) {
    recorded_start_ = min_start;
    recorded_span_ = max_end - min_start;
  }

  indirect_ = tracedb::indirect_parents(db_);

  // Paging attribution: the innermost recorded call of the same enclave whose
  // window contains the fault timestamp.  Paging records carry no thread id,
  // so "innermost" means latest-starting containing call across all threads.
  const auto& paging = db_.paging();
  paging_call_.assign(paging.size(), kNoParent);
  std::vector<std::uint64_t> starts;
  starts.reserve(calls.size());
  for (const auto& c : calls) starts.push_back(c.start_ns);
  for (std::size_t p = 0; p < paging.size(); ++p) {
    const auto& pr = paging[p];
    auto i = static_cast<std::size_t>(
        std::upper_bound(starts.begin(), starts.end(), pr.timestamp_ns) - starts.begin());
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

std::uint64_t ReplayEngine::apply_passes(const Scenario& scenario,
                                         std::vector<std::int64_t>& delta,
                                         ScenarioResult& result) const {
  const auto& calls = db_.calls();
  const CostModel& old_cost = config_.recorded_cost;
  std::uint64_t unattributed_saved = 0;

  // Ocall transition costs live in the *parent ecall's* self time (§4.1.2:
  // ocall timestamps exclude the transitions around the untrusted stub), so
  // ocall-site savings are written onto the direct parent when there is one.
  const auto remove_ocall_transition = [&](CallIndex idx) {
    const auto& c = calls[static_cast<std::size_t>(idx)];
    const CallIndex target = c.parent != kNoParent ? c.parent : idx;
    delta[static_cast<std::size_t>(target)] -=
        static_cast<std::int64_t>(old_cost.full_ocall_ns());
  };

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
    const auto gain = static_cast<std::int64_t>(old_cost.switchless_call_ns) -
                      static_cast<std::int64_t>(old_cost.full_ecall_ns());
    std::vector<std::uint64_t> busy_until(outcome.workers, 0);
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const auto& c = calls[i];
      if (key_of(c) != spec.site) continue;
      // Earliest-available worker; ties resolve to the lowest index.
      std::size_t w = 0;
      for (std::size_t j = 1; j < busy_until.size(); ++j) {
        if (busy_until[j] < busy_until[w]) w = j;
      }
      if (busy_until[w] > c.start_ns) {
        ++outcome.fallbacks;  // all workers busy: full transition stays
        continue;
      }
      delta[i] += gain;
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
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const auto& c = calls[i];
      if (key_of(c) != spec.site) continue;
      if (c.type == CallType::kEcall) {
        delta[i] -= static_cast<std::int64_t>(old_cost.full_ecall_ns()) +
                    static_cast<std::int64_t>(c.aex_count) *
                        static_cast<std::int64_t>(old_cost.aex_ns);
      } else {
        remove_ocall_transition(static_cast<CallIndex>(i));
      }
      ++result.transitions_removed;
    }
  }

  // --- Eq.3 batch / merge into the indirect parent ---------------------------
  for (const auto& spec : scenario.merge) {
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const auto& c = calls[i];
      if (key_of(c) != spec.site) continue;
      const CallIndex ip = indirect_[i];
      if (ip == kNoParent) continue;  // first of its run keeps its transition
      if (spec.partner &&
          key_of(calls[static_cast<std::size_t>(ip)]) != *spec.partner) {
        continue;
      }
      if (c.type == CallType::kEcall) {
        delta[i] -= static_cast<std::int64_t>(old_cost.full_ecall_ns());
      } else {
        remove_ocall_transition(static_cast<CallIndex>(i));
      }
      ++result.transitions_removed;
    }
  }

  // --- transition-cost profile swap (§2.3.1) ---------------------------------
  if (scenario.cost_profile) {
    const CostModel new_cost = CostModel::preset(*scenario.cost_profile);
    const auto d_ecall = static_cast<std::int64_t>(new_cost.full_ecall_ns()) -
                         static_cast<std::int64_t>(old_cost.full_ecall_ns());
    const auto d_ocall = static_cast<std::int64_t>(new_cost.full_ocall_ns()) -
                         static_cast<std::int64_t>(old_cost.full_ocall_ns());
    const auto d_aex = static_cast<std::int64_t>(new_cost.aex_ns) -
                       static_cast<std::int64_t>(old_cost.aex_ns);
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const auto& c = calls[i];
      if (c.type == CallType::kEcall) {
        delta[i] += d_ecall + static_cast<std::int64_t>(c.aex_count) * d_aex;
      } else {
        const CallIndex target = c.parent != kNoParent ? c.parent : static_cast<CallIndex>(i);
        delta[static_cast<std::size_t>(target)] += d_ocall;
      }
    }
  }

  // --- EPC resize: LRU over the recorded fault sequence ----------------------
  const auto& paging = db_.paging();
  for (const auto& pr : paging) {
    if (pr.direction == tracedb::PageDirection::kPageIn) ++result.page_faults_before;
  }
  result.page_faults_after = result.page_faults_before;
  if (scenario.epc_pages) {
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
          delta[static_cast<std::size_t>(paging_call_[p])] -=
              static_cast<std::int64_t>(saved_per_fault);
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

std::uint64_t ReplayEngine::retime_call(CallIndex idx, std::uint64_t new_start,
                                        const std::vector<std::int64_t>& delta,
                                        Retimed& out) const {
  const auto& calls = db_.calls();
  const auto& c = calls[static_cast<std::size_t>(idx)];
  out.start_ns[static_cast<std::size_t>(idx)] = new_start;

  // Walk the call's self-time segments (before / between / after its nested
  // calls), absorbing the delta.  A negative delta carries across segments
  // until absorbed; whatever the total self time cannot absorb is clamped.
  std::uint64_t t = new_start;
  std::int64_t carry = delta[static_cast<std::size_t>(idx)];
  std::uint64_t prev_end = c.start_ns;
  for (std::size_t k = child_begin_[static_cast<std::size_t>(idx)];
       k < child_begin_[static_cast<std::size_t>(idx) + 1]; ++k) {
    const CallIndex ch = child_list_[k];
    const auto& cc = calls[static_cast<std::size_t>(ch)];
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
    t += seg;
    t = retime_call(ch, t, delta, out);
    prev_end = std::max(prev_end, cc.end_ns);
  }
  std::uint64_t tail = c.end_ns >= prev_end ? c.end_ns - prev_end : 0;
  if (carry != 0) tail = clamp_add(tail, carry);
  t += tail;
  out.end_ns[static_cast<std::size_t>(idx)] = t;
  return t;
}

ReplayEngine::Retimed ReplayEngine::retime(const std::vector<std::int64_t>& delta) const {
  const auto& calls = db_.calls();
  Retimed out;
  out.start_ns.assign(calls.size(), 0);
  out.end_ns.assign(calls.size(), 0);

  for (const auto& seq : top_level_) {
    std::uint64_t prev_new_end = 0;
    std::uint64_t prev_rec_end = 0;
    bool first = true;
    for (const CallIndex idx : seq) {
      const auto& c = calls[static_cast<std::size_t>(idx)];
      std::uint64_t new_start;
      if (first) {
        new_start = c.start_ns;  // the recorded lead-in is not ours to move
        first = false;
      } else {
        // Preserve the recorded think time between consecutive calls.
        const std::uint64_t gap = c.start_ns >= prev_rec_end ? c.start_ns - prev_rec_end : 0;
        new_start = prev_new_end + gap;
      }
      prev_new_end = retime_call(idx, new_start, delta, out);
      prev_rec_end = c.end_ns;
    }
  }

  if (!calls.empty()) {
    std::uint64_t max_end = 0;
    for (const auto e : out.end_ns) max_end = std::max(max_end, e);
    out.span_ns = max_end > recorded_start_ ? max_end - recorded_start_ : 0;
  }
  return out;
}

ScenarioResult ReplayEngine::run(const Scenario& scenario) const {
  ScenarioResult result;
  result.name = scenario.name;
  result.recorded_span_ns = recorded_span_;

  std::vector<std::int64_t> delta(db_.calls().size(), 0);
  const std::uint64_t unattributed = apply_passes(scenario, delta, result);
  const Retimed rt = retime(delta);

  std::uint64_t span = rt.span_ns;
  span = span > unattributed ? span - unattributed : 0;
  result.replayed_span_ns = span;

  for (auto& o : result.switchless) set_wasted_worker_ns(o, span);
  return result;
}

std::vector<ScenarioResult> ReplayEngine::run_all(
    const std::vector<Scenario>& scenarios) const {
  std::vector<ScenarioResult> out(scenarios.size());
  if (scenarios.empty()) return out;

  std::size_t workers = config_.threads != 0
                            ? config_.threads
                            : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers = std::min(workers, scenarios.size());

  if (workers <= 1) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) out[i] = run(scenarios[i]);
    return out;
  }

  // Each scenario writes its own pre-sized slot; the claim order is the only
  // nondeterminism and it does not affect the results.
  std::atomic<std::size_t> next{0};
  const auto body = [&] {
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < scenarios.size();) {
      out[i] = run(scenarios[i]);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(body);
  for (auto& t : pool) t.join();
  return out;
}

ValidationResult ReplayEngine::validate() const {
  ValidationResult v;
  v.recorded_span_ns = recorded_span_;

  Scenario identity;
  identity.name = "identity";
  v.replayed_span_ns = run(identity).replayed_span_ns;
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
  ScenarioResult result;
  result.recorded_span_ns = recorded_span_;
  std::vector<std::int64_t> delta(db_.calls().size(), 0);
  (void)apply_passes(scenario, delta, result);
  const Retimed rt = retime(delta);

  tracedb::TraceDatabase out;
  for (const auto& e : db_.enclaves()) out.add_enclave(e);
  for (const auto& n : db_.call_names()) out.add_call_name(n);
  const auto& calls = db_.calls();
  for (std::size_t i = 0; i < calls.size(); ++i) {
    CallRecord rec = calls[i];  // keeps type, ids, parent index, AEX count
    rec.start_ns = rt.start_ns[i];
    rec.end_ns = rt.end_ns[i];
    out.add_call(rec);
  }
  return out;
}

}  // namespace replay
