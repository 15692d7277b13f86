// Deterministic trace-replay and what-if prediction engine.
//
// The engine reconstructs virtual time from a recorded TraceDatabase: each
// call is decomposed into *self time* segments (the stretches not covered by
// nested calls — which for ecalls include the modeled transition overhead,
// §4.1.2) and the recorded gaps between calls.  A transformation pass
// expresses its effect as a signed time delta on the calls it touches.  A
// call absorbs its delta into its self time, clamped at zero, and everything
// downstream on its thread shifts, so the empty scenario reproduces the
// recorded timeline *exactly* and any transformed scenario yields a
// predicted one.
//
// Recorded gaps never move, so a call's replayed duration is its self time
// plus its clamped delta plus its children's durations, and a thread's last
// end moves by the sum of the clamped deltas of every call under its
// top-level calls.  run() therefore prices a scenario from the calls it
// touches alone; only materialize(), which needs every call's new times,
// re-times the whole trace with a walk of each thread's call trees.
//
// The engine never indexes the trace itself.  It reads the caller's
// tracedb::TraceIndex: the site index to find the calls a per-site pass
// touches, the indirect parents for the merge pass.  The analyser passes the
// index it analysed with; every other caller builds one with
// tracedb::index_trace.
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
// Everything is deterministic and single-threaded: each scenario is one
// sequential replay, and callers run several scenarios one after another.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "replay/scenario.hpp"
#include "sgxsim/cost_model.hpp"
#include "sgxsim/driver.hpp"
#include "tracedb/database.hpp"
#include "tracedb/query.hpp"

namespace replay {

struct ReplayConfig {
  /// Cost model the trace was recorded under.  The trace file does not store
  /// the machine's patch level, so this defaults to the paper's unpatched
  /// testbed; pass the matching preset when replaying Spectre/L1TF traces.
  sgxsim::CostModel recorded_cost = sgxsim::CostModel::preset(sgxsim::PatchLevel::kUnpatched);
  /// EPC capacity (pages) of the recording machine, for the paging pass.
  std::size_t recorded_epc_pages = sgxsim::Driver::kDefaultEpcPages;
};

/// Replays one trace.  Every call's parent must be kNoParent or the index of
/// an earlier call, and `index` must be tracedb::index_trace(db); the
/// constructor throws std::invalid_argument for a bad parent or an index
/// with another call count.  The engine keeps references to `db` and
/// `index` and must not outlive either.
class ReplayEngine {
 public:
  ReplayEngine(const tracedb::TraceDatabase& db, const tracedb::TraceIndex& index,
               ReplayConfig config = {});
  ReplayEngine(const tracedb::TraceDatabase&, tracedb::TraceIndex&&, ReplayConfig = {}) = delete;

  /// Replays the empty scenario and checks the recorded trace against the
  /// cost model (see ValidationResult).
  [[nodiscard]] ValidationResult validate() const;

  /// Re-costs the trace under one scenario.  Deterministic.
  [[nodiscard]] ScenarioResult run(const Scenario& scenario) const;

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
  /// (call, time delta) pairs a scenario's passes write, in any order and
  /// possibly several per call.
  using Deltas = std::vector<std::pair<tracedb::CallIndex, std::int64_t>>;

  /// One recorded thread's top-level call sequence.
  struct Sequence {
    tracedb::ThreadId thread = 0;
    /// Where the identity replay ends the sequence's last call.
    std::uint64_t identity_end_ns = 0;
  };

  /// Applies every pass of `scenario`, appending per-call deltas and filling
  /// the result's counters.  Returns the span reduction that could not be
  /// attributed to any call (EPC savings outside all calls).
  std::uint64_t apply_passes(const Scenario& scenario, Deltas& deltas,
                             ScenarioResult& result) const;

  /// The recorded calls of `site`, in trace order (empty if none).
  [[nodiscard]] const tracedb::CallInstances& instances_of(const tracedb::CallKey& site) const;

  /// Replayed span under `deltas`, from the touched calls alone.
  [[nodiscard]] std::uint64_t span_under(Deltas& deltas) const;

  const tracedb::TraceDatabase& db_;
  ReplayConfig config_;

  /// Site index and indirect parents (Figure 4, for the merge pass).
  const tracedb::TraceIndex& index_;

  /// Self time of each call: its recorded duration not covered by its
  /// children, i.e. the gaps before, between and after them.
  std::vector<std::uint64_t> self_ns_;
  /// Top-level sequences, sorted by thread id.
  std::vector<Sequence> sequences_;
  /// For each paging record: the innermost containing call, or kNoParent.
  std::vector<tracedb::CallIndex> paging_call_;
  std::uint64_t page_ins_ = 0;
  std::uint64_t recorded_span_ = 0;
  std::uint64_t recorded_start_ = 0;
  /// The empty scenario's replayed span.
  std::uint64_t identity_span_ = 0;
};

}  // namespace replay
