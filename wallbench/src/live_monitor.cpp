// live-monitor: the price of tracing and live analysis per enclave request.
//
// One Urts runs the `mixed` stressor with a single worker.  The benchmark
// thread calls Stressor::step() itself and then MonitorSession::poll(), so
// one op covers the simulated calls, the logger's records, the ring publish,
// OnlineAnalyzer::feed and windowing, with no thread hand-off or sleep on
// the timed path.  The run is a sequence of bounded sessions; each ends with
// Logger::detach(), finish()/persist() and a store commit, all inside the
// timed phase (they count in throughput, not in per-op latency).
#include <cstdio>
#include <memory>
#include <optional>
#include <set>

#include "common.hpp"
#include "perf/logger.hpp"
#include "perf/online.hpp"
#include "perf/session.hpp"
#include "stress/stressor.hpp"
#include "support/json.hpp"
#include "tracedb/open.hpp"
#include "tracedb/store/store.hpp"

namespace wallbench {

namespace {

/// One op is a full 4-step `mixed` cycle (storm+quick, sync, tail, EPC
/// sweep), so every op does the same work.
constexpr int kStepsPerOp = 4;

/// How far the blocking-path self times may stray from the untraced per-op
/// wall time before the traced run warns (README.md, "Blocking-path
/// tolerance").
constexpr double kCoverageTolerance = 0.15;

struct Sizes {
  std::size_t session_ops;  // ops per bounded session
  std::size_t warmup_ops;   // ops of the warm-up session in set-up
  std::size_t query_every;  // ops between two live refreshes
};

Sizes sizes_for(bool tiny) {
  if (tiny) return {300, 300, 32};
  return {4000, 1000, 64};
}

/// A machine with the mixed stressor prepared on it.  prepare() faults in
/// ~1.25x the EPC, so it runs before any subscription exists: a session
/// subscribed first would see those events overflow its ring.
struct Machine {
  std::unique_ptr<sgxsim::Urts> urts;
  std::unique_ptr<stress::Stressor> stressor;
  std::uint64_t next_step = 0;

  explicit Machine(std::uint64_t seed) {
    urts = std::make_unique<sgxsim::Urts>();
    stressor = stress::make_stressor("mixed");
    stress::StressConfig config;
    config.threads = 1;
    config.seed = seed;
    stressor->prepare(*urts, config);
  }

  void op() {
    for (int k = 0; k < kStepsPerOp; ++k) stressor->step(*urts, 0, next_step++);
  }
};

struct Names {
  SpanRecorder::NameId op, step, poll, open, merge, finish, persist, commit, close, query, floor,
      feed;

  explicit Names(SpanRecorder& r)
      : op(r.name("bench.op")),
        step(r.name("perf.logger.step")),
        poll(r.name("perf.session.poll")),
        open(r.name("perf.session.open")),
        merge(r.name("tracedb.merge")),
        finish(r.name("perf.session.finish")),
        persist(r.name("perf.session.persist")),
        commit(r.name("tracedb.store.commit")),
        close(r.name("perf.session.close")),
        query(r.name("perf.session.query")),
        floor(r.name("sgxsim.step")),
        feed(r.name("perf.online.feed")) {}
};

/// What a dashboard polling the live session reads: the loss counters, the
/// active alerts as JSON lines and the conservation ledger.
void live_refresh(const perf::MonitorSession& session, const tracedb::TraceDatabase& db) {
  (void)session.stats();
  for (const auto& a : session.analyzer().active_alerts()) {
    (void)perf::alert_json(a, false, db.name_of(a.enclave_id, a.type, a.call_id));
  }
  support::json::Writer w;
  session.ledger().write_json(w);
}

struct Phase {
  std::vector<double> op_ms;
  std::vector<double> query_ms;
  std::uint64_t ops = 0;
  std::uint64_t events = 0;
  std::uint64_t sessions = 0;
  double wall_s = 0.0;
  // Traced-phase counters.
  std::uint64_t windows = 0;
  std::uint64_t alerts_raised = 0;
  std::uint64_t stream_dropped = 0;
  std::vector<double> bytes_written;
  double probe_ms = 0.0;  // traced-only reads of the committed store
};

/// One bounded session: subscribe, run `ops` ops with a refresh every
/// `query_every`, then detach, seal, persist and commit to `store_path`.
/// Checks the session's labels and conservation ledger into `out`.
void run_session(Machine& m, const Sizes& sz, std::size_t ops, const std::string& store_path,
                 SpanRecorder* rec, const Names* n, Phase& ph, RunResult& out) {
  const auto id = [&](SpanRecorder::NameId Names::*f) { return n != nullptr ? n->*f : 0; };
  // Owned here so that tearing a session down is timed like the rest of it.
  struct Live {
    tracedb::TraceDatabase db;
    std::optional<perf::Logger> logger;
    std::optional<perf::MonitorSession> session;
  };
  std::unique_ptr<Live> live;
  {
    SpanScope s(rec, id(&Names::open), ph.ops);
    live = std::make_unique<Live>();
    perf::LoggerConfig lc;
    lc.merge_threads = g_worker_threads;
    live->logger.emplace(live->db, lc);
    live->logger->attach(*m.urts);
    perf::MonitorSessionConfig config;
    config.identity = {"bench-host", "stress_mixed"};
    config.subscription_name = "wallbench";
    live->session.emplace(*live->logger, *m.urts, config);
  }
  tracedb::TraceDatabase& db = live->db;
  perf::Logger& logger = *live->logger;
  perf::MonitorSession& session = *live->session;
  if (!session.ok()) throw std::runtime_error("live-monitor: no free subscriber slot");

  for (std::size_t i = 0; i < ops; ++i) {
    const auto t0 = Clock::now();
    {
      SpanScope o(rec, id(&Names::op), ph.ops);
      {
        SpanScope s(rec, id(&Names::step), ph.ops);
        m.op();
      }
      SpanScope p(rec, id(&Names::poll), ph.ops);
      session.poll();
    }
    const auto t1 = Clock::now();
    ph.op_ms.push_back(static_cast<double>(ns_between(t0, t1)) / 1e6);
    ++ph.ops;
    rotator().tick(t1);
    if (i % sz.query_every == sz.query_every - 1) {
      {
        SpanScope q(rec, id(&Names::query), ph.ops);
        live_refresh(session, db);
      }
      ph.query_ms.push_back(static_cast<double>(ns_between(t1, Clock::now())) / 1e6);
    }
  }
  {
    SpanScope s(rec, id(&Names::merge), ph.ops);
    logger.detach();
  }
  {
    SpanScope s(rec, id(&Names::finish), ph.ops);
    session.finish();
  }
  {
    SpanScope s(rec, id(&Names::persist), ph.ops);
    session.persist();
  }
  {
    SpanScope s(rec, id(&Names::commit), ph.ops);
    tracedb::save_trace(db, store_path);
  }

  // Correctness: the mixed label set (labels_ok semantics of the stress
  // harness) and a passing conservation audit, with no event lost.
  const auto stats = session.stats();
  const std::uint64_t produced = logger.events_produced();
  const std::uint64_t dropped = stats.stream_dropped + stats.sealed_dropped;
  out.attempted += produced;
  if (dropped > 0) out.fail(dropped, "live-monitor: events dropped in a session");
  std::set<tracedb::AlertKind> triggered;
  for (const auto& a : session.analyzer().active_alerts()) {
    if (a.kind != tracedb::AlertKind::kLatencyShift) triggered.insert(a.kind);
  }
  const auto& spec = m.stressor->spec();
  bool labels_ok = true;
  for (const auto k : spec.must_trigger) labels_ok = labels_ok && triggered.count(k) != 0;
  for (const auto k : spec.must_not) labels_ok = labels_ok && triggered.count(k) == 0;
  if (!labels_ok) out.fail(produced, "live-monitor: mixed label set not met");
  const auto audit = session.ledger().audit();
  if (!audit.ok) {
    out.fail(produced, "live-monitor: ledger audit failed at " + audit.first_leak_stage);
  }

  ph.events += produced;
  ph.sessions += 1;
  ph.windows += session.analyzer().windows().size();
  ph.alerts_raised += stats.alerts_raised;
  ph.stream_dropped += stats.stream_dropped;
  if (rec != nullptr) {
    const auto p0 = Clock::now();
    tracedb::store::StoreReader reader(store_path);
    ph.bytes_written.push_back(static_cast<double>(reader.info().total_bytes));
    ph.probe_ms += seconds_since(p0) * 1e3;
  }
  SpanScope s(rec, id(&Names::close), ph.ops);
  live.reset();
}

/// Runs whole sessions until `seconds` have passed.
Phase run_sessions(Machine& m, const Sizes& sz, double seconds, const std::string& store_path,
                   SpanRecorder* rec, const Names* n, RunResult& out) {
  Phase ph;
  ph.op_ms.reserve(static_cast<std::size_t>(seconds * 20000) + sz.session_ops);
  const auto t0 = Clock::now();
  do {
    run_session(m, sz, sz.session_ops, store_path, rec, n, ph, out);
  } while (seconds_since(t0) < seconds);
  ph.wall_s = seconds_since(t0);
  return ph;
}

double per_op_ms(const Phase& ph) {
  double q = 0.0;
  for (const double x : ph.query_ms) q += x;
  return (ph.wall_s * 1e3 - q - ph.probe_ms) / static_cast<double>(ph.ops);
}

}  // namespace

RunResult run_live_monitor(const RunOptions& opt) {
  RunResult out;
  const Sizes sz = sizes_for(opt.tiny);
  const std::string store_path = opt.work_dir + "/live.store";

  std::unique_ptr<Machine> machine;
  const double setup_s = timed_setups(5, [&] {
    machine = std::make_unique<Machine>(opt.seed);
    // Warm-up: one whole session, commit included, which also produces the
    // input digest (the seeded think times show in the call timestamps).
    Phase warm;
    RunResult checks;
    run_session(*machine, sz, sz.warmup_ops, store_path, nullptr, nullptr, warm, checks);
    if (checks.failed > 0) {
      out.attempted += checks.attempted;
      out.fail(checks.failed, "warm-up: " + checks.failures.begin()->first);
    }
    const auto db = tracedb::open_trace(store_path, tracedb::store::kSectionMeta |
                                                        tracedb::store::kSectionEvents);
    out.inputs_digest = kDigestSeed;
    for (const auto& c : db.calls()) {
      digest_bytes(out.inputs_digest, &c.start_ns, sizeof c.start_ns);
    }
  });

  if (!opt.trace) {
    Phase ph = run_sessions(*machine, sz, opt.seconds, store_path, nullptr, nullptr, out);
    out.metrics[kSetup] = setup_s;
    out.metrics[kPeakRss] = peak_rss_mb();
    out.metrics[kThroughput] = static_cast<double>(ph.events) / ph.wall_s;
    put_latencies(out, std::move(ph.op_ms), 0.9, std::move(ph.query_ms), 0.9);
    return out;
  }

  // Traced run: the floor (same seeded ops, no logger), an untraced and a
  // traced session phase of equal length, then a capture phase that re-feeds
  // the recorded stream into a standalone OnlineAnalyzer.
  SpanRecorder rec(1u << 21);
  const Names n(rec);
  Machine floor_machine(opt.seed);
  {
    const auto t0 = Clock::now();
    std::uint64_t i = 0;
    do {
      {
        SpanScope s(&rec, n.floor, i++);
        floor_machine.op();
      }
      rotator().tick(Clock::now());
    } while (seconds_since(t0) < 0.15 * opt.seconds);
  }
  const Phase untraced =
      run_sessions(*machine, sz, 0.3 * opt.seconds, store_path, nullptr, nullptr, out);
  const Phase traced = run_sessions(*machine, sz, 0.3 * opt.seconds, store_path, &rec, &n, out);

  // Capture: a bare subscription drained after every op, then fed to a
  // standalone analyser in one timed pass.
  std::vector<perf::StreamEvent> captured;
  {
    tracedb::TraceDatabase db;
    perf::LoggerConfig lc;
    lc.merge_threads = g_worker_threads;
    perf::Logger logger(db, lc);
    logger.attach(*machine->urts);
    auto sub = logger.subscribe("wallbench-capture", 1u << 16);
    const std::size_t cap = opt.tiny ? 50'000 : 500'000;
    captured.reserve(cap + 4096);
    const auto t0 = Clock::now();
    while (captured.size() < cap && seconds_since(t0) < 0.1 * opt.seconds) {
      machine->op();
      sub->poll(captured);
      rotator().tick(Clock::now());
    }
    logger.detach();
    while (sub->poll(captured) > 0) {
    }
    if (sub->dropped() > 0) out.fail(sub->dropped(), "live-monitor: capture ring dropped events");
  }
  perf::OnlineAnalyzer online;
  {
    SpanScope s(&rec, n.feed, 0);
    online.feed(captured);
  }

  const auto self_ms = [&](SpanRecorder::NameId id) {
    return static_cast<double>(rec.totals(id).self_ns) / 1e6;
  };
  const double ops = static_cast<double>(traced.ops);
  const double events_per_op = static_cast<double>(traced.events) / ops;
  const double floor_ms_per_op =
      static_cast<double>(rec.totals(n.floor).total_ns) / 1e6 /
      static_cast<double>(rec.totals(n.floor).count);
  const double step_ms_per_op = self_ms(n.step) / ops;
  const double sessions = static_cast<double>(traced.sessions);
  auto& m = out.metrics;
  m["sgxsim.request_us"] = floor_ms_per_op * 1e3;
  m["perf.logger.record_ns_per_event"] = (step_ms_per_op - floor_ms_per_op) * 1e6 / events_per_op;
  m["perf.logger.events"] = static_cast<double>(traced.events);
  m["perf.session.poll_ns_per_event"] = self_ms(n.poll) * 1e6 / static_cast<double>(traced.events);
  m["perf.online.feed_ns_per_event"] =
      captured.empty() ? 0.0 : self_ms(n.feed) * 1e6 / static_cast<double>(captured.size());
  m["perf.online.windows"] = static_cast<double>(traced.windows);
  m["perf.online.alerts_raised"] = static_cast<double>(traced.alerts_raised);
  m["perf.stream.dropped"] = static_cast<double>(traced.stream_dropped);
  m["tracedb.merge_ms"] = self_ms(n.merge) / sessions;
  m["perf.session.finish_ms"] = self_ms(n.finish) / sessions;
  m["tracedb.store.commit_ms"] = self_ms(n.commit) / sessions;
  m["tracedb.store.bytes_written"] = median(traced.bytes_written);
  const double blocking_ms = self_ms(n.step) + self_ms(n.poll) + self_ms(n.open) +
                             self_ms(n.merge) + self_ms(n.finish) + self_ms(n.persist) +
                             self_ms(n.commit) + self_ms(n.close);
  put_trace_accounting(out, per_op_ms(untraced), per_op_ms(traced), blocking_ms / ops);
  const double coverage = m["bench.blocking_path_coverage"];
  if (coverage < 1.0 - kCoverageTolerance || coverage > 1.0 + kCoverageTolerance) {
    std::fprintf(stderr,
                 "wallbench: warning: blocking-path self times cover %.2f of the untraced "
                 "per-op time (tolerance +-%.2f)\n",
                 coverage, kCoverageTolerance);
  }
  rec.print_table(stderr);
  if (!rec.write_chrome_json(opt.spans_path)) out.fail(1, "cannot write " + opt.spans_path);
  return out;
}

}  // namespace wallbench
