// Embeddable monitor sessions — the `sgxperf monitor` consumer loop as a
// library (the ROADMAP monitor-embedding item, and the producer half of the
// fleet aggregation service).
//
// `sgxperf monitor` can only watch its own built-in workloads; an
// application that drives its own Urts/Logger (library embedding, like the
// README Quickstart) had to re-assemble the subscribe + OnlineAnalyzer +
// windowing plumbing by hand.  MonitorSession owns exactly that plumbing:
//
//   perf::Logger logger(db);
//   logger.attach(urts);
//   perf::MonitorSession session(logger, urts);     // subscribes
//   session.add_sink(std::make_shared<perf::JsonLinesSink>(stderr));
//   ... workload runs; session.poll() from a monitoring thread ...
//   logger.detach();
//   session.finish();                               // seals + resolves
//   session.persist();                              // windows + alerts
//
// Sinks observe the same typed transitions the daemon emits: every alert
// raise/resolve the moment the predicate flips, every closed window with
// its per-site HDR deltas (the mergeable currency a fleet aggregator
// needs), and a final stats record carrying the loss counters (stream and
// sealed-shard drops) so an aggregation service can flag lossy producers
// per (host, enclave).  `sgxperf top`'s dashboard is one more sink
// (TopSink), drawn from those windows.
//
// Threading: single-consumer, like the OnlineAnalyzer it owns.  poll(),
// pump(), finish() and persist() belong to one monitoring thread; the
// producers are the traced workload threads on the far side of the stream
// subscription.  Sinks are invoked on the monitoring thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perf/logger.hpp"
#include "perf/online.hpp"
#include "telemetry/hdr_histogram.hpp"
#include "telemetry/ledger.hpp"

namespace sgxsim {
class Driver;
class Urts;
}

namespace perf {

/// Producer identity of one monitored process: the (host, enclave) half of
/// the fleet series key (the site half comes from per-call names).
struct SessionIdentity {
  std::string host = "localhost";
  std::string enclave = "enclave";
};

/// Everything a sink learns when a session starts.
struct SessionInfo {
  SessionIdentity identity;
  std::uint64_t window_ns = 0;
};

/// Loss and progress counters of one session, as of the last poll().  The
/// drop counters exist in the metrics registry but were invisible mid-run;
/// this is the per-session view `sgxperf monitor` prints periodically and
/// `sgxperf serve` uses to report lossy producers.
struct SessionStats {
  std::uint64_t events = 0;           // events fed into the online analyser
  std::uint64_t stream_dropped = 0;   // this subscription's ring drops
  std::uint64_t sealed_dropped = 0;   // events rejected by sealed shards
  std::uint64_t pending_evicted = 0;  // Eq. 2 children evicted (online.hpp)
  std::uint64_t alerts_raised = 0;
  std::uint64_t alerts_resolved = 0;
};

/// One window-site row as handed to sinks: the persisted record plus the
/// resolved site name and the window-local HDR delta.
struct SessionWindowSite {
  tracedb::WindowSiteRecord row;
  std::string name;
  telemetry::HdrSnapshot delta;
};

/// Pluggable observer of a session's typed output.  All hooks run on the
/// monitoring thread; default implementations ignore the event, so a sink
/// overrides only what it consumes.
class MonitorSink {
 public:
  virtual ~MonitorSink() = default;

  virtual void on_session_start(const SessionInfo& info) { (void)info; }
  /// Every alert transition, the moment the predicate flips.
  virtual void on_alert(const tracedb::AlertRecord& alert, bool resolved,
                        const std::string& site_name) {
    (void)alert;
    (void)resolved;
    (void)site_name;
  }
  /// Every closed window, with one row per site that completed a call in it.
  virtual void on_window(const tracedb::WindowRecord& window,
                         const std::vector<SessionWindowSite>& sites) {
    (void)window;
    (void)sites;
  }
  /// Final counters, emitted once by finish() before on_finish().
  virtual void on_stats(const SessionStats& stats) { (void)stats; }
  /// End of session; `end_ns` is the sealed virtual end time.
  virtual void on_finish(std::uint64_t end_ns) { (void)end_ns; }
};

/// Sink adapter for plain callbacks (alert transitions only) — the lightest
/// way to embed: `session.add_sink(std::make_shared<CallbackSink>(fn));`.
class CallbackSink : public MonitorSink {
 public:
  using AlertFn =
      std::function<void(const tracedb::AlertRecord&, bool resolved, const std::string& name)>;

  explicit CallbackSink(AlertFn fn) : fn_(std::move(fn)) {}

  void on_alert(const tracedb::AlertRecord& alert, bool resolved,
                const std::string& site_name) override {
    if (fn_) fn_(alert, resolved, site_name);
  }

 private:
  AlertFn fn_;
};

/// Streams alert transitions as JSON lines to a stdio file — byte-identical
/// to the `sgxperf monitor` stderr/--alert-log format (golden-tested).  The
/// sink does not own the FILE*.
class JsonLinesSink : public MonitorSink {
 public:
  explicit JsonLinesSink(std::FILE* out) : out_(out) {}

  void on_alert(const tracedb::AlertRecord& alert, bool resolved,
                const std::string& site_name) override;

 private:
  std::FILE* out_;
};

/// `sgxperf top`'s live dashboard as a sink: folds each closed window into
/// per-site tables and renders plain-text frames (header with virtual-time
/// rates, peak EPC residency and the drop count, then one row per site, busiest
/// first).  Cumulative mode merges every window's per-site HDR delta into a
/// running total — bucket-wise sums of the deltas are the cumulative
/// distribution exactly; windowed mode shows only the last closed window, so
/// its rows equal that window's persisted WindowSiteRecords.  Mid-run frames
/// trail the stream by at most one window; once finish() has closed the last
/// one, the frame covers every event.
class TopSink : public MonitorSink {
 public:
  struct Site {
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t aexs = 0;
    telemetry::HdrSnapshot latency;
  };

  /// `trace` is the logger's database: once it is merged (the logger
  /// detached before finish()), it supplies the first recorded timestamp
  /// that starts the header's virtual-time span.  `epc` is the watched
  /// machine's EPC driver, sampled for its peak residency at every closed
  /// window.
  TopSink(const tracedb::TraceDatabase& trace, const sgxsim::Driver& epc, bool windowed)
      : trace_(trace), epc_(epc), windowed_(windowed) {}

  void on_session_start(const SessionInfo& info) override { window_ns_ = info.window_ns; }
  void on_window(const tracedb::WindowRecord& window,
                 const std::vector<SessionWindowSite>& sites) override;
  void on_finish(std::uint64_t end_ns) override;  // the trace's first timestamp

  /// One frame, no terminal escapes — the caller decides how to repaint.
  /// Rates cover the virtual time since the previous frame.
  [[nodiscard]] std::string render_frame();

  [[nodiscard]] const std::map<tracedb::CallKey, Site>& sites() const noexcept { return sites_; }
  [[nodiscard]] std::uint64_t total_calls() const noexcept { return calls_; }
  [[nodiscard]] std::uint64_t total_aexs() const noexcept { return aexs_; }
  [[nodiscard]] std::uint64_t total_paging() const noexcept { return paging_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::uint64_t epc_peak_pages() const noexcept { return epc_peak_; }

 private:
  const tracedb::TraceDatabase& trace_;
  const sgxsim::Driver& epc_;
  bool windowed_;
  /// Peak EPC residency seen at a closed window.  A peak, not the current
  /// value: a workload that destroys its enclave before the run ends would
  /// otherwise show 0 pages in the final frame.
  std::uint64_t epc_peak_ = 0;
  std::uint64_t window_ns_ = 0;
  std::map<tracedb::CallKey, Site> sites_;
  std::uint64_t calls_ = 0;
  std::uint64_t aexs_ = 0;
  std::uint64_t paging_ = 0;
  std::uint64_t dropped_ = 0;
  /// Virtual-time span of the frames: the first window's start until the
  /// trace's first timestamp is known, and the last window's end.
  std::uint64_t first_ns_ = 0;
  std::uint64_t last_ns_ = 0;
  /// Previous frame's totals, for the per-frame rate line.
  std::uint64_t prev_calls_ = 0;
  std::uint64_t prev_aexs_ = 0;
  std::uint64_t prev_ns_ = 0;
  std::uint64_t frame_ = 0;
};

/// One alert transition as a JSON line (no trailing newline) — shared by
/// JsonLinesSink and the monitor CLI.
[[nodiscard]] std::string alert_json(const tracedb::AlertRecord& alert, bool resolved,
                                     const std::string& site_name);

struct MonitorSessionConfig {
  SessionIdentity identity;
  /// Subscription registered with the logger's stream hub.  Size the ring
  /// at or above the expected event count when loss matters: a dropped
  /// event skews the online detector state.
  std::string subscription_name = "session";
  std::size_t subscription_capacity = 1 << 16;
  OnlineConfig online;
};

/// Owns one Logger::subscribe() stream + OnlineAnalyzer + windowing, and
/// fans the typed output (alerts, window snapshots, stats) out to sinks —
/// `sgxperf monitor` as an embeddable object.
class MonitorSession {
 public:
  /// Subscribes to `logger`'s stream.  ok() is false when the logger's
  /// subscriber slots were exhausted.
  explicit MonitorSession(Logger& logger, MonitorSessionConfig config = {});

  /// Same, plus Urts-backed window externals (switchless occupancy folded
  /// into window snapshots, like the monitor daemon).  `urts` must outlive
  /// the session.
  MonitorSession(Logger& logger, sgxsim::Urts& urts, MonitorSessionConfig config = {});

  MonitorSession(const MonitorSession&) = delete;
  MonitorSession& operator=(const MonitorSession&) = delete;
  ~MonitorSession();

  [[nodiscard]] bool ok() const noexcept { return sub_ != nullptr; }

  /// Registers a sink (invoked on the monitoring thread).  The sink
  /// immediately observes on_session_start().
  void add_sink(std::shared_ptr<MonitorSink> sink);

  /// Drains every pending stream event into the analyser.  Returns the
  /// number of events consumed.  Call repeatedly from one thread.
  std::size_t poll();

  /// Installs the orderliness model (empty disables the checker) after the
  /// session subscribed and before the first poll() — for embedders whose
  /// model names enclaves created after subscribing, like the stress soak.
  /// Throws std::logic_error once an event has been fed.
  void set_order_model(OrderModel model) { online_.set_order_model(std::move(model)); }

  /// The consumer loop: drain continuously until `done` turns true, waiting
  /// `interval_ms` between empty polls (0 = yield) and running `idle` after
  /// each wait, then drain the tail.  Returns total events consumed.
  std::uint64_t pump(const std::atomic<bool>& done, std::size_t interval_ms = 10,
                     const std::function<void()>& idle = {});

  /// Seals the session: drains the tail of the stream, closes the
  /// subscription, finishes the analyser (resolving stale alerts) and emits
  /// on_stats()/on_finish() to every sink.  The end timestamp is taken from
  /// the logger's database when it has been detached/merged, falling back
  /// to the last streamed event otherwise.  Idempotent.
  void finish();

  /// Persists the window/alert tables (and the order rules, when a model
  /// is set) into the logger's database.  Call after finish().
  void persist();

  [[nodiscard]] SessionStats stats() const;

  /// Appends this session's conservation stages (record, stream, session)
  /// to `led` — see telemetry/ledger.hpp and DESIGN.md §13.  Exact once the
  /// logger has been detached (shards merged) and finish() has drained the
  /// ring; before that the record stage lags the unmerged shards.  Adjacent
  /// stages intentionally count different populations (lifecycle events
  /// enter the stream but not the event tables; calls publish on
  /// completion), so conservation is checked per stage, not across stages.
  void fill_ledger(telemetry::Ledger& led) const;
  [[nodiscard]] telemetry::Ledger ledger() const;

  [[nodiscard]] const SessionIdentity& identity() const noexcept { return config_.identity; }
  [[nodiscard]] const OnlineAnalyzer& analyzer() const noexcept { return online_; }
  [[nodiscard]] std::uint64_t end_ns() const noexcept { return end_ns_; }

 private:
  void wire_analyzer();
  /// Hands closed windows to the sinks; installed with the first sink.
  void install_window_sink();
  [[nodiscard]] std::string name_of(tracedb::EnclaveId enclave, tracedb::CallType type,
                                    tracedb::CallId id) const;

  Logger& logger_;
  sgxsim::Urts* urts_ = nullptr;
  MonitorSessionConfig config_;
  OnlineAnalyzer online_;
  std::shared_ptr<StreamSubscription> sub_;
  std::vector<std::shared_ptr<MonitorSink>> sinks_;
  std::vector<StreamEvent> batch_;
  std::uint64_t polled_ = 0;  // events drained from the ring (monitoring thread)
  std::uint64_t last_event_ns_ = 0;
  std::uint64_t end_ns_ = 0;
  std::uint64_t raised_ = 0;
  std::uint64_t resolved_ = 0;
  bool finished_ = false;
};

}  // namespace perf
