// SoakHarness: runs a stressor under the full live-observability stack —
// Logger attached, the workload on its own thread and a perf::MonitorSession
// (the `sgxperf monitor` consumer loop) draining the stream — and seals the
// run into a normal trace with windows and alerts.  This is how the stress
// suite doubles as a labeled corpus: the SoakResult carries both the raw run
// stats and the verdict of the triggered alert kinds against the
// stressor's ground-truth label set.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "perf/analyzer.hpp"
#include "perf/session.hpp"
#include "stress/stressor.hpp"
#include "tracedb/database.hpp"

namespace stress {

struct SoakConfig {
  StressConfig stress;
  /// Stream subscription ring capacity.  Size it at or above the expected
  /// event count when asserting zero drops (the soak/accuracy tests do).
  std::size_t subscription_capacity = 1 << 18;
  /// Online window length; 0 keeps the OnlineConfig default (1 ms).
  support::Nanoseconds window_ns = 0;
  perf::AnalyzerConfig analyzer;
  /// Orderliness model for the online checker.  Unset = the stressor's own
  /// order_model() (read after prepare()); an explicit empty model disables
  /// checking.
  std::optional<perf::OrderModel> order;
};

struct SoakResult {
  StressResult stress;
  /// The session's final counters: events fed, alert transitions, stream
  /// and sealed-shard drops, Eq. 2 evictions (the drops must stay 0).
  perf::SessionStats session;
  std::uint64_t windows = 0;
  std::vector<tracedb::AlertRecord> active_alerts;
  /// Alert kinds active at end of run, kLatencyShift excluded (it is an
  /// online-only change signal outside every stressor's label universe).
  std::set<tracedb::AlertKind> triggered;
  /// Label verdict: must_trigger kinds that did not fire / must_not kinds
  /// that did.
  std::set<tracedb::AlertKind> missing;
  std::set<tracedb::AlertKind> false_positives;

  [[nodiscard]] bool labels_ok() const noexcept {
    return missing.empty() && false_positives.empty();
  }
};

/// Runs `stressor` with the logger attached and a MonitorSession pumping
/// the stream on the calling thread while the workload runs on another, then
/// seals the run: finish() at the last recorded timestamp and persist() the
/// windows/alerts into `db`, which afterwards holds a complete trace of the
/// stress run.
SoakResult run_soak(Stressor& stressor, sgxsim::Urts& urts,
                    tracedb::TraceDatabase& db, const SoakConfig& config);

}  // namespace stress
