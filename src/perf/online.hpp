// Online (in-flight) anti-pattern detection.
//
// The analyser (§4.3) runs post-mortem: nothing fires until the trace is
// sealed.  This layer is the second user of the same detector core
// (perf/detectors.hpp): it updates each site's counters from a
// Logger::subscribe() stream and re-evaluates the site's predicates at once,
// so a long-running workload raises SISC/SDSC/SNC/SSC, paging and
// tail-latency alerts the moment a site crosses its threshold — with an
// onset timestamp — instead of averaging the problem away until shutdown.
//
// The two analysers differ only in how they feed and report the core:
// online takes the stream in arrival order, pairs Eq. 2 children with their
// parent's end through a bounded pending buffer and finds Eq. 3 indirect
// parents through a per-thread last-call map; it raises one alert per
// (kind, site), so Eq. 3 keeps the best-scoring partner; and its tail
// percentiles come from the site's cumulative HDR.  On a quiesced workload
// where no stream events were dropped, the end-of-run active-alert set
// equals the post-mortem finding set — the property
// tests/online_analyzer_test.cpp pins on demo/minikv/minidb.
//
// On top of the shared detectors, fixed-interval *windows* (virtual-time
// aligned, so replays are deterministic) cut per-site rate/percentile
// snapshots from each site's window-local HDR (telemetry::WindowedHdr) and
// run EWMA+CUSUM change detection over per-window mean latency
// (AlertKind::kLatencyShift — an online-only signal with no post-mortem
// analogue).  Windows, per-site window rows and the full alert history
// persist as the v5 trace tables.
//
// Threading: single-consumer.  feed()/on_window()/finish() belong to one
// monitoring thread; the producers are the traced workload threads on the
// other side of the stream subscription.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "perf/analyzer.hpp"
#include "perf/detectors.hpp"
#include "perf/orderliness.hpp"
#include "perf/stream.hpp"
#include "telemetry/timeseries.hpp"
#include "tracedb/database.hpp"
#include "tracedb/query.hpp"

namespace perf {

/// Stable lowercase identifier for an alert kind (JSON-lines field, goldens).
[[nodiscard]] const char* to_string(tracedb::AlertKind k) noexcept;

struct OnlineConfig {
  /// Detector thresholds — shared with the post-mortem analyser so the
  /// end-of-run verdicts agree.  (predict_speedups is ignored here.)
  AnalyzerConfig analyzer;
  /// Virtual-time window length for the snapshot tables.
  support::Nanoseconds window_ns = 1'000'000;
  /// EWMA/CUSUM parameters for the per-site latency-shift detector.
  telemetry::EwmaCusum::Config change;
  /// Per-thread cap on parents with buffered children awaiting the parent's
  /// completion event (Eq. 2 end-side correlation).  Overflow evicts the
  /// oldest parent — bounded memory even if parent completions are dropped.
  std::size_t max_pending_parents = 4096;
  /// Interface-orderliness model (learned or declared).  Empty disables the
  /// checker; otherwise every call/lifecycle event is validated and the five
  /// v6 orderliness AlertKinds are raised with virtual-time onsets.
  OrderModel order;
};

/// External cumulative counters folded into each window snapshot.  The
/// analyser cannot reach the runtime itself, so the monitor supplies them.
struct WindowExternals {
  std::uint64_t stream_dropped = 0;
  std::uint64_t switchless_calls = 0;
  std::uint64_t switchless_fallbacks = 0;
  std::uint64_t switchless_wasted_ns = 0;
};

/// One closed window's per-site view as handed to a window sink: the
/// persisted row plus the window-local HDR delta (the mergeable currency a
/// fleet aggregator needs — bucket-wise sums of deltas reconstruct the
/// cumulative distribution exactly).
struct WindowSiteSnapshot {
  tracedb::WindowSiteRecord row;
  telemetry::HdrSnapshot delta;
};

class OnlineAnalyzer {
 public:
  using ExternalsFn = std::function<WindowExternals()>;
  /// Invoked on every alert transition: raised (resolved == false) the
  /// moment the predicate first holds, resolved when it stops holding.
  using AlertSink = std::function<void(const tracedb::AlertRecord&, bool resolved)>;
  /// Invoked each time a window closes, with the window row and one
  /// snapshot per site that completed a call inside it.  The HDR deltas are
  /// only copied when a window sink is installed.
  using WindowSink =
      std::function<void(const tracedb::WindowRecord&, const std::vector<WindowSiteSnapshot>&)>;

  explicit OnlineAnalyzer(OnlineConfig config = {});

  void set_externals(ExternalsFn fn) { externals_ = std::move(fn); }
  void set_alert_sink(AlertSink sink) { sink_ = std::move(sink); }
  void set_window_sink(WindowSink sink) { window_sink_ = std::move(sink); }
  /// Replaces the orderliness model (empty disables the checker).  Only
  /// before the first feed(), so the checker sees every lifecycle event;
  /// throws std::logic_error afterwards.
  void set_order_model(OrderModel model);

  /// Feeds one stream event.  Cheap-predicate detectors (Eq. 1–3, SSC,
  /// paging) re-evaluate the affected site immediately; percentile-based
  /// ones run at window boundaries.
  void feed(const StreamEvent& ev);
  void feed(const std::vector<StreamEvent>& batch) {
    for (const auto& ev : batch) feed(ev);
  }

  /// Seals the run at virtual time `end_ns`: closes the final window,
  /// re-evaluates every site (tail latency included) and resolves alerts
  /// whose predicates no longer hold.  Call once, after the last feed().
  void finish(support::Nanoseconds end_ns);

  /// Writes the window/alert tables (and the window period) into `db` —
  /// the v5 payload.  Typically called after finish(), on the same database
  /// the logger recorded into.
  void persist(tracedb::TraceDatabase& db) const;

  // --- results --------------------------------------------------------------
  [[nodiscard]] const std::vector<tracedb::WindowRecord>& windows() const noexcept {
    return windows_;
  }
  [[nodiscard]] const std::vector<tracedb::WindowSiteRecord>& window_sites() const noexcept {
    return window_sites_;
  }
  /// Full alert history, in onset order.  resolved_ns == 0 means still
  /// active (after finish(): the end-of-run verdict set).
  [[nodiscard]] const std::vector<tracedb::AlertRecord>& alerts() const noexcept {
    return alerts_;
  }
  [[nodiscard]] std::vector<tracedb::AlertRecord> active_alerts() const;
  [[nodiscard]] std::uint64_t events_seen() const noexcept { return events_seen_; }
  /// Eq. 2 child buffers discarded by the pending-parent cap (0 on healthy
  /// streams; nonzero means end-side reorder counts undercount).
  [[nodiscard]] std::uint64_t pending_evicted() const noexcept { return pending_evicted_; }

 private:
  /// One site: the shared detector counters plus the window state only the
  /// online analyser keeps.
  struct SiteState {
    SiteCounters counters;
    // Latency: cumulative HDR (tail detector) and the open window's HDR.
    telemetry::WindowedHdr latency;
    std::uint64_t window_calls = 0;  // completions in the open window
    std::uint64_t window_aex = 0;
    // Change detection over per-window mean latency.
    telemetry::EwmaCusum change;
    bool touched_this_window = false;
    /// Bit k set iff a site-kind alert of AlertKind k is active for this
    /// site, so reconcile_site touches active_ only on a transition.
    std::uint16_t active_kinds = 0;

    explicit SiteState(const telemetry::EwmaCusum::Config& cfg) : change(cfg) {}
  };

  /// Per-enclave paging tallies (detector subject: CallKey{eid, kEcall, 0}).
  struct PagingState {
    std::uint64_t total = 0;
    std::uint64_t window_ins = 0;
    std::uint64_t window_outs = 0;
    /// Latched when the paging alert fires: the count only grows, so the
    /// alert never resolves and later events skip reconcile_paging.
    bool alerted = false;
  };

  /// One child completion waiting for its parent's end timestamp.
  struct PendingChild {
    tracedb::CallKey site;
    std::uint64_t end_ns = 0;
  };
  struct ThreadState {
    /// parent_start_ns -> children completed inside that parent (Eq. 2
    /// end-side).  std::map keeps eviction of the oldest parent O(log n).
    std::map<std::uint64_t, std::vector<PendingChild>> pending;
    /// (child type, direct-parent instance) -> last completed call of that
    /// key, mirroring tracedb::indirect_parents (Eq. 3).  Valid online
    /// because same-key calls never overlap: completion order == start
    /// order.  A parent's completion erases its children's entry (none can
    /// complete after it), so the map holds one entry per open parent plus
    /// one per call type for top-level calls.
    struct LastCall {
      tracedb::CallKey site;
      std::uint64_t end_ns = 0;
    };
    std::map<std::pair<tracedb::CallType, std::uint64_t>, LastCall> last_same_key;
  };

  void on_call(const StreamEvent& ev);
  void on_instant(const StreamEvent& ev);
  /// Folds one orderliness violation into the alert tables: first occurrence
  /// per (kind, site) raises, repeats bump the count in the detail word —
  /// the same fold OrderAlertFolder applies on the batch path.
  void on_order_violation(const OrderViolation& v);
  /// Closes windows until `ts` falls inside the open one.
  void roll_windows(std::uint64_t ts);
  void close_window(std::uint64_t window_end);

  /// Raises and resolves `site`'s alerts to match its predicates right now.
  /// `with_tail` controls the O(buckets) percentile predicate.
  void reconcile_site(const tracedb::CallKey& site, SiteState& st, bool with_tail,
                      std::uint64_t now);
  void reconcile_paging(tracedb::EnclaveId eid, PagingState& pg, std::uint64_t now);
  void raise_alert(tracedb::AlertKind kind, const tracedb::CallKey& site, std::uint64_t now,
                   std::uint64_t detail);
  void resolve_alert(tracedb::AlertKind kind, const tracedb::CallKey& site, std::uint64_t now);

  OnlineConfig config_;
  ExternalsFn externals_;
  AlertSink sink_;
  WindowSink window_sink_;

  std::map<tracedb::CallKey, SiteState> sites_;
  std::map<tracedb::EnclaveId, PagingState> paging_;
  std::map<std::uint32_t, ThreadState> threads_;
  /// evaluate()'s output, reused so reconciling allocates nothing per event.
  std::vector<Verdict> verdicts_;
  /// close_window()'s scratch, reused so that a close without a window sink
  /// allocates nothing: expiring latency-shift alerts, and the sink's rows.
  std::vector<std::pair<tracedb::AlertKind, tracedb::CallKey>> expired_;
  std::vector<WindowSiteSnapshot> sink_sites_;

  /// Present iff config_.order is non-empty.
  std::optional<OrderChecker> order_checker_;

  /// (kind, site) -> index into alerts_ of the active record.
  std::map<std::pair<tracedb::AlertKind, tracedb::CallKey>, std::size_t> active_;

  std::vector<tracedb::WindowRecord> windows_;
  std::vector<tracedb::WindowSiteRecord> window_sites_;
  std::vector<tracedb::AlertRecord> alerts_;

  bool window_open_ = false;
  std::uint64_t window_start_ = 0;
  std::uint32_t window_index_ = 0;
  std::uint64_t window_calls_ = 0;
  std::uint64_t window_aexs_ = 0;
  std::uint64_t events_seen_ = 0;
  std::uint64_t pending_evicted_ = 0;
  bool finished_ = false;
};

}  // namespace perf
