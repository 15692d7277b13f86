// Deterministic trace-replay and what-if prediction engine.
//
// The engine reconstructs virtual time from a recorded TraceDatabase: each
// call is decomposed into *self time* segments (the stretches not covered by
// nested calls — which for ecalls include the modeled transition overhead,
// §4.1.2) and the recorded gaps between calls.  A transformation pass
// expresses its effect as one signed time delta per call; the re-timing walk
// then rebuilds every per-thread call tree, absorbing negative deltas into
// the call's self-time segments (clamped at zero) and shifting everything
// downstream, so the empty scenario reproduces the recorded timeline
// *exactly* and any transformed scenario yields a predicted one.
//
// Approximations, by design:
//  * Virtual time is one global clock shared by all recording threads, so a
//    recorded duration may include advances made by other threads.  Replay
//    re-times each thread's call sequence independently; cross-thread clock
//    coupling is not re-simulated.
//  * EPC resizing replays the recorded *fault* sequence through an LRU of
//    the new capacity.  Growing the EPC turns recorded faults into hits;
//    shrinking cannot discover faults the original run never had, so the
//    shrink direction under-estimates cost.
//  * Paging records carry no thread id; saved faults are attributed to the
//    innermost recorded call of the same enclave containing the timestamp,
//    and to the whole-trace span when no such call exists.
//
// Everything is deterministic: scenarios are themselves replayed
// single-threaded, and run_all() distributes *whole scenarios* across a
// thread pool writing into a pre-sized slot per scenario — results are
// byte-identical at any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "replay/scenario.hpp"
#include "sgxsim/cost_model.hpp"
#include "sgxsim/driver.hpp"
#include "tracedb/database.hpp"

namespace replay {

struct ReplayConfig {
  /// Cost model the trace was recorded under.  The trace file does not store
  /// the machine's patch level, so this defaults to the paper's unpatched
  /// testbed; pass the matching preset when replaying Spectre/L1TF traces.
  sgxsim::CostModel recorded_cost = sgxsim::CostModel::preset(sgxsim::PatchLevel::kUnpatched);
  /// EPC capacity (pages) of the recording machine, for the paging pass.
  std::size_t recorded_epc_pages = sgxsim::Driver::kDefaultEpcPages;
  /// Worker threads for run_all() (0 = hardware concurrency).  Results are
  /// identical for every value; this only changes wall-clock time.
  std::size_t threads = 0;
};

/// Replays one trace.  Every call's parent must be kNoParent or the index of
/// an earlier call, which loading a trace checks.
class ReplayEngine {
 public:
  explicit ReplayEngine(const tracedb::TraceDatabase& db, ReplayConfig config = {});

  /// Replays the empty scenario and checks the recorded trace against the
  /// cost model (see ValidationResult).
  [[nodiscard]] ValidationResult validate() const;

  /// Re-costs the trace under one scenario.  Deterministic.
  [[nodiscard]] ScenarioResult run(const Scenario& scenario) const;

  /// Runs independent scenarios in parallel; out[i] corresponds to
  /// scenarios[i] and is byte-identical at any thread count.
  [[nodiscard]] std::vector<ScenarioResult> run_all(
      const std::vector<Scenario>& scenarios) const;

  /// Switchless worker-count sweep over [min_workers, max_workers].  Counts
  /// are replayed one at a time, in order, until one has no fallbacks; every
  /// larger count serves the same calls, so its point is derived from that
  /// one instead of replayed.
  [[nodiscard]] SweepResult sweep_switchless(const tracedb::CallKey& site,
                                             std::size_t min_workers = 1,
                                             std::size_t max_workers = 8) const;

  /// Builds the re-timed trace a scenario predicts, suitable for
  /// perf::compare_traces against the recorded one.  Calls keep their ids,
  /// parents and AEX counts; only timestamps move.  Paging/sync/telemetry
  /// tables are not carried over (they describe the recorded machine).
  [[nodiscard]] tracedb::TraceDatabase materialize(const Scenario& scenario) const;

  /// Recorded span: last call end minus first call start (0 if no calls).
  [[nodiscard]] std::uint64_t recorded_span_ns() const noexcept { return recorded_span_; }

  [[nodiscard]] const ReplayConfig& config() const noexcept { return config_; }

 private:
  struct Retimed {
    std::vector<std::uint64_t> start_ns;
    std::vector<std::uint64_t> end_ns;
    std::uint64_t span_ns = 0;
  };

  /// Applies every pass of `scenario`, filling per-call deltas and the
  /// result's counters.  Returns the span reduction that could not be
  /// attributed to any call (EPC savings outside all calls).
  std::uint64_t apply_passes(const Scenario& scenario, std::vector<std::int64_t>& delta,
                             ScenarioResult& result) const;

  /// Rebuilds every thread's call timeline under the given deltas.
  [[nodiscard]] Retimed retime(const std::vector<std::int64_t>& delta) const;

  /// Re-times one call tree rooted at `idx`, returning the new end time.
  std::uint64_t retime_call(tracedb::CallIndex idx, std::uint64_t new_start,
                            const std::vector<std::int64_t>& delta, Retimed& out) const;

  const tracedb::TraceDatabase& db_;
  ReplayConfig config_;

  /// Direct children (nested calls) of each call, in start order, in
  /// compressed sparse row form: the children of call i are
  /// child_list_[child_begin_[i] .. child_begin_[i + 1]).
  std::vector<std::size_t> child_begin_;
  std::vector<tracedb::CallIndex> child_list_;
  /// Top-level call sequences, one per recorded thread, in start order.
  std::vector<std::vector<tracedb::CallIndex>> top_level_;
  /// Indirect parents (Figure 4), for the merge pass.
  std::vector<tracedb::CallIndex> indirect_;
  /// For each paging record: the innermost containing call, or kNoParent.
  std::vector<tracedb::CallIndex> paging_call_;
  std::uint64_t recorded_span_ = 0;
  std::uint64_t recorded_start_ = 0;
};

}  // namespace replay
