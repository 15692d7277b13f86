// perf::MonitorSession — the embeddable `sgxperf monitor` consumer loop.
//
// Pins the embedding contract: a session wrapped around an externally-driven
// Urts/Logger observes the same typed output the daemon emits (alert
// transitions, window snapshots with per-site HDR deltas, final stats), its
// persisted v5 tables match the analyser state, its loss counters are
// visible mid-run, and — under lockstep stress scheduling — its entire
// output is a pure function of the workload spec (byte-identical alert
// streams across runs).  `sgxperf top`'s TopSink is checked on the same
// loop: its folded windows equal the logger's latency table and event
// counts, and its windowed view equals the last persisted window.
// OnlineLocks pins every window table, alert and sink delta of a long
// one-thread `mixed` session by digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perf/logger.hpp"
#include "perf/session.hpp"
#include "sgxsim/runtime.hpp"
#include "stress/stressor.hpp"
#include "tests/sim_helpers.hpp"

namespace {

/// Captures everything a session emits, in order.
class CollectorSink : public perf::MonitorSink {
 public:
  void on_session_start(const perf::SessionInfo& info) override {
    starts += 1;
    last_info = info;
  }
  void on_alert(const tracedb::AlertRecord& alert, bool resolved,
                const std::string& site_name) override {
    alert_lines.push_back(perf::alert_json(alert, resolved, site_name));
  }
  void on_window(const tracedb::WindowRecord& window,
                 const std::vector<perf::SessionWindowSite>& sites) override {
    windows.emplace_back(window, sites);
  }
  void on_stats(const perf::SessionStats& stats) override {
    stats_calls += 1;
    final_stats = stats;
  }
  void on_finish(std::uint64_t end_ns) override {
    finish_calls += 1;
    finish_end_ns = end_ns;
  }

  int starts = 0;
  perf::SessionInfo last_info;
  std::vector<std::string> alert_lines;
  std::vector<std::pair<tracedb::WindowRecord, std::vector<perf::SessionWindowSite>>> windows;
  int stats_calls = 0;
  perf::SessionStats final_stats;
  int finish_calls = 0;
  std::uint64_t finish_end_ns = 0;
};

struct SessionRun {
  tracedb::TraceDatabase db;
  std::shared_ptr<CollectorSink> sink;
  perf::SessionStats stats;
  std::uint64_t end_ns = 0;
  std::size_t analyzer_windows = 0;
};

/// Runs one lockstep stressor under an embedded session — the corpus
/// producer shape, minus the wire sink.
SessionRun run_embedded(const std::string& stressor_name, std::size_t threads,
                        std::uint64_t duration_ns, std::uint64_t seed) {
  SessionRun out;
  const auto stressor = stress::make_stressor(stressor_name);
  if (stressor == nullptr) throw std::runtime_error("unknown stressor");

  sgxsim::Urts urts(sgxsim::CostModel::preset(sgxsim::PatchLevel::kUnpatched));
  perf::Logger logger(out.db);
  logger.attach(urts);

  perf::MonitorSessionConfig config;
  config.identity = {"test-host", stressor_name};
  config.subscription_capacity = 1 << 18;
  config.online.window_ns = 1'000'000;
  perf::MonitorSession session(logger, urts, config);
  if (!session.ok()) throw std::runtime_error("no subscriber slot");

  out.sink = std::make_shared<CollectorSink>();
  session.add_sink(out.sink);

  stress::StressConfig scfg;
  scfg.threads = threads;
  scfg.duration_ns = duration_ns;
  scfg.seed = seed;
  scfg.lockstep = true;
  stress::run_stressor(*stressor, urts, scfg);

  session.poll();
  logger.detach();
  session.finish();
  session.persist();
  out.stats = session.stats();
  out.end_ns = session.end_ns();
  out.analyzer_windows = session.analyzer().windows().size();
  return out;
}

TEST(MonitorSession, ObservesAnEmbeddedStressRun) {
  const auto run = run_embedded("ocall-storm", 2, 20'000'000, 7);

  EXPECT_EQ(run.sink->starts, 1);
  EXPECT_EQ(run.sink->last_info.identity.host, "test-host");
  EXPECT_EQ(run.sink->last_info.identity.enclave, "ocall-storm");
  EXPECT_EQ(run.sink->last_info.window_ns, 1'000'000u);

  EXPECT_GT(run.stats.events, 0u);
  EXPECT_EQ(run.stats.stream_dropped, 0u);
  EXPECT_EQ(run.stats.sealed_dropped, 0u);
  EXPECT_GT(run.stats.alerts_raised, 0u) << "ocall-storm must trip the online detectors";
  EXPECT_EQ(run.sink->alert_lines.size(), run.stats.alerts_raised + run.stats.alerts_resolved);

  ASSERT_FALSE(run.sink->windows.empty());
  EXPECT_EQ(run.sink->windows.size(), run.analyzer_windows);
  // Window deltas cover every recorded call exactly once.
  std::uint64_t delta_calls = 0;
  for (const auto& [win, sites] : run.sink->windows) {
    for (const auto& site : sites) {
      EXPECT_FALSE(site.name.empty());
      EXPECT_EQ(site.delta.count(), site.row.calls);
      delta_calls += site.delta.count();
    }
  }
  EXPECT_EQ(delta_calls, run.db.calls().size());

  EXPECT_EQ(run.sink->stats_calls, 1);
  EXPECT_EQ(run.sink->finish_calls, 1);
  EXPECT_GT(run.sink->finish_end_ns, 0u);
  EXPECT_EQ(run.sink->finish_end_ns, run.end_ns);
}

TEST(MonitorSession, PersistWritesTheV5Tables) {
  const auto run = run_embedded("cpu", 2, 10'000'000, 7);
  EXPECT_EQ(run.db.window_period(), 1'000'000u);
  EXPECT_EQ(run.db.windows().size(), run.analyzer_windows);
  EXPECT_FALSE(run.db.window_sites().empty());
}

TEST(MonitorSession, LockstepRunsAreByteIdentical) {
  const auto a = run_embedded("ocall-storm", 2, 20'000'000, 7);
  const auto b = run_embedded("ocall-storm", 2, 20'000'000, 7);
  EXPECT_EQ(a.sink->alert_lines, b.sink->alert_lines);
  ASSERT_EQ(a.sink->windows.size(), b.sink->windows.size());
  for (std::size_t i = 0; i < a.sink->windows.size(); ++i) {
    const auto& [wa, sa] = a.sink->windows[i];
    const auto& [wb, sb] = b.sink->windows[i];
    EXPECT_EQ(wa.calls, wb.calls);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t j = 0; j < sa.size(); ++j) {
      EXPECT_EQ(sa[j].name, sb[j].name);
      EXPECT_EQ(sa[j].delta.count(), sb[j].delta.count());
      EXPECT_EQ(sa[j].delta.sum(), sb[j].delta.sum());
    }
  }
  EXPECT_EQ(a.stats.events, b.stats.events);
  EXPECT_EQ(a.end_ns, b.end_ns);
}

TEST(MonitorSession, PumpDrainsAConcurrentWorkload) {
  const auto stressor = stress::make_stressor("cpu");
  ASSERT_NE(stressor, nullptr);
  sgxsim::Urts urts(sgxsim::CostModel::preset(sgxsim::PatchLevel::kUnpatched));
  tracedb::TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);

  perf::MonitorSessionConfig config;
  config.subscription_capacity = 1 << 18;
  config.online.window_ns = 1'000'000;
  perf::MonitorSession session(logger, urts, config);
  ASSERT_TRUE(session.ok());

  std::atomic<bool> done{false};
  std::thread worker([&] {
    stress::StressConfig scfg;
    scfg.threads = 2;
    scfg.duration_ns = 10'000'000;
    scfg.seed = 7;
    scfg.lockstep = true;
    stress::run_stressor(*stressor, urts, scfg);
    done.store(true, std::memory_order_release);
  });
  const std::uint64_t pumped = session.pump(done, 1);
  worker.join();
  logger.detach();
  session.finish();

  EXPECT_GT(pumped, 0u);
  // finish() may drain a tail beyond what pump() saw, never less.
  EXPECT_GE(session.stats().events, pumped);
  EXPECT_EQ(session.stats().stream_dropped, 0u);
}

TEST(MonitorSession, OrderModelInstalledAfterSubscribingChecksTheRun) {
  // The stress soak's shape: subscribe first so the lifecycle events are
  // queued, create the enclaves the model names, then install the model.
  const auto stressor = stress::make_stressor("order");
  ASSERT_NE(stressor, nullptr);
  sgxsim::Urts urts(sgxsim::CostModel::preset(sgxsim::PatchLevel::kUnpatched));
  tracedb::TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);
  perf::MonitorSessionConfig config;
  config.subscription_capacity = 1 << 18;
  perf::MonitorSession session(logger, config);
  ASSERT_TRUE(session.ok());

  stress::StressConfig scfg;
  scfg.threads = 2;
  scfg.duration_ns = 20'000'000;
  scfg.seed = 7;
  scfg.lockstep = true;
  stressor->prepare(urts, scfg);
  session.set_order_model(stressor->order_model());
  stress::run_stressor(*stressor, urts, scfg, /*already_prepared=*/true);
  ASSERT_GT(session.poll(), 0u);
  EXPECT_THROW(session.set_order_model({}), std::logic_error);
  logger.detach();
  session.finish();

  std::set<tracedb::AlertKind> active;
  for (const auto& a : session.analyzer().active_alerts()) active.insert(a.kind);
  for (const auto kind : stressor->spec().must_trigger) {
    EXPECT_EQ(active.count(kind), 1u) << perf::to_string(kind);
  }
}

TEST(MonitorSession, PumpWithZeroIntervalRunsIdleOnTheCallingThread) {
  tracedb::TraceDatabase db;
  perf::Logger logger(db);
  perf::MonitorSession session(logger);
  ASSERT_TRUE(session.ok());
  std::atomic<bool> done{false};
  int idle_calls = 0;
  const auto caller = std::this_thread::get_id();
  EXPECT_EQ(session.pump(done, 0,
                         [&] {
                           ++idle_calls;
                           EXPECT_EQ(std::this_thread::get_id(), caller);
                           done.store(true, std::memory_order_release);
                         }),
            0u);
  EXPECT_EQ(idle_calls, 1);
}

constexpr const char* kSpinEdl = R"(
  enclave {
    trusted { public int ecall_spin(void); };
    untrusted { void ocall_blip(void); };
  };
)";

TEST(MonitorSession, TopSinkAggregatesSitesWhileAttached) {
  sgxsim::Urts urts;
  tracedb::TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);
  perf::MonitorSession session(logger);
  ASSERT_TRUE(session.ok());
  auto top = std::make_shared<perf::TopSink>(db, urts.driver(), /*windowed=*/false);
  session.add_sink(top);

  sgxsim::EnclaveConfig config;
  config.tcs_count = 3;
  const auto eid = test_helpers::make_enclave(urts, kSpinEdl, std::move(config));
  urts.enclave(eid).register_ecall("ecall_spin", [](sgxsim::TrustedContext& ctx, void*) {
    ctx.work(1'000);
    return ctx.ocall(0, nullptr);
  });
  sgxsim::OcallTable table = sgxsim::make_ocall_table({&test_helpers::empty_ocall});
  std::thread other([&] {
    for (int i = 0; i < 30; ++i) urts.sgx_ecall(eid, 0, &table, nullptr);
  });
  for (int i = 0; i < 30; ++i) urts.sgx_ecall(eid, 0, &table, nullptr);
  other.join();

  // The logger is still attached: the stream alone carries every call.
  session.poll();
  session.finish();
  EXPECT_EQ(top->total_calls(), 120u);  // 60 ecalls + 60 ocalls
  EXPECT_EQ(top->dropped(), 0u);
  ASSERT_EQ(top->sites().size(), 2u);
  for (const auto& [key, site] : top->sites()) {
    EXPECT_EQ(site.calls, 60u);
    EXPECT_EQ(site.latency.count(), 60u);
    EXPECT_GT(site.latency.value_at_percentile(50), 0u);
  }

  const std::string frame = top->render_frame();
  EXPECT_NE(frame.find("sgxperf top — frame 1"), std::string::npos);
  EXPECT_NE(frame.find("ecall_spin"), std::string::npos);
  EXPECT_NE(frame.find("ocall_blip"), std::string::npos);
  EXPECT_NE(frame.find("p99.9[us]"), std::string::npos);

  logger.detach();
}

/// What a TopSink showed after a sealed lockstep `mixed` stress run — a
/// 4 MiB EPC makes it page, and AEX tracing puts every AEX in the trace.
struct TopRun {
  std::shared_ptr<perf::TopSink> top;
  std::vector<tracedb::WindowRecord> windows;
  std::vector<tracedb::WindowSiteRecord> window_sites;
  std::size_t epc_capacity = 0;
};

TopRun run_top_over_stress(tracedb::TraceDatabase& db, bool windowed) {
  const auto stressor = stress::make_stressor("mixed");
  if (stressor == nullptr) throw std::runtime_error("unknown stressor");
  sgxsim::Urts urts(sgxsim::CostModel::preset(sgxsim::PatchLevel::kUnpatched),
                    4 * 1024 * 1024 / sgxsim::kPageSize);
  perf::LoggerConfig lcfg;
  lcfg.trace_aex = true;
  perf::Logger logger(db, lcfg);
  logger.attach(urts);

  perf::MonitorSessionConfig config;
  config.subscription_capacity = 1 << 18;
  config.online.window_ns = 1'000'000;
  perf::MonitorSession session(logger, urts, config);
  if (!session.ok()) throw std::runtime_error("no subscriber slot");
  TopRun out;
  out.top = std::make_shared<perf::TopSink>(db, urts.driver(), windowed);
  session.add_sink(out.top);

  stress::StressConfig scfg;
  scfg.threads = 2;
  scfg.duration_ns = 20'000'000;
  scfg.seed = 7;
  stress::run_stressor(*stressor, urts, scfg);
  session.poll();
  logger.detach();
  session.finish();
  out.windows = session.analyzer().windows();
  out.window_sites = session.analyzer().window_sites();
  out.epc_capacity = urts.driver().epc_pages();
  return out;
}

TEST(MonitorSession, TopSinkFoldsWindowsIntoTheLoggersLatencyTable) {
  tracedb::TraceDatabase db;
  const TopRun run = run_top_over_stress(db, /*windowed=*/false);
  const perf::TopSink& top = *run.top;
  ASSERT_EQ(top.dropped(), 0u);
  ASSERT_GT(db.aexs().size(), 0u);
  ASSERT_GT(db.paging().size(), 0u);
  EXPECT_EQ(top.total_calls(), db.calls().size());
  EXPECT_EQ(top.total_aexs(), db.aexs().size());
  EXPECT_EQ(top.total_paging(), db.paging().size());
  // The run pages, so at some closed window the EPC was full.
  EXPECT_EQ(top.epc_peak_pages(), run.epc_capacity);

  ASSERT_EQ(top.sites().size(), db.latencies().size());
  for (const auto& [key, site] : top.sites()) {
    const auto* rec = db.find_latency(key.enclave_id, key.type, key.call_id);
    ASSERT_NE(rec, nullptr) << site.name;
    telemetry::HdrSnapshot from_table;
    for (const auto& [idx, n] : rec->buckets) from_table.add_bucket(idx, n);
    from_table.set_exact_sum(rec->sum_ns);
    EXPECT_EQ(site.calls, rec->count) << site.name;
    EXPECT_EQ(site.latency.count(), rec->count) << site.name;
    EXPECT_EQ(site.latency.sum(), rec->sum_ns) << site.name;
    for (const double q : {50.0, 90.0, 99.0, 99.9}) {
      EXPECT_EQ(site.latency.value_at_percentile(q), from_table.value_at_percentile(q))
          << site.name << " q=" << q;
    }
  }
}

TEST(MonitorSession, WindowedTopSinkShowsTheLastWindow) {
  tracedb::TraceDatabase db;
  const TopRun run = run_top_over_stress(db, /*windowed=*/true);
  ASSERT_FALSE(run.windows.empty());
  const std::uint32_t last = run.windows.back().window_index;
  std::vector<tracedb::WindowSiteRecord> rows;
  for (const auto& r : run.window_sites) {
    if (r.window_index == last) rows.push_back(r);
  }
  ASSERT_FALSE(rows.empty());

  const auto& sites = run.top->sites();
  ASSERT_EQ(sites.size(), rows.size());
  for (const auto& r : rows) {
    const auto it = sites.find(tracedb::CallKey{r.enclave_id, r.type, r.call_id});
    ASSERT_NE(it, sites.end());
    EXPECT_EQ(it->second.calls, r.calls);
    EXPECT_EQ(it->second.aexs, r.aex_count);
    EXPECT_EQ(it->second.latency.value_at_percentile(50), r.p50_ns);
    EXPECT_EQ(it->second.latency.value_at_percentile(99), r.p99_ns);
  }
  // The frame prints those rows under its four header lines, and its
  // header totals still cover the whole run.
  const std::string frame = run.top->render_frame();
  EXPECT_EQ(static_cast<std::size_t>(std::count(frame.begin(), frame.end(), '\n')),
            4 + rows.size());
  EXPECT_NE(frame.find("window: 1.000ms"), std::string::npos);
  EXPECT_EQ(run.top->total_calls(), db.calls().size());
}

TEST(MonitorSession, AlertJsonCarriesSchemaVersionFirst) {
  tracedb::AlertRecord alert;
  alert.kind = tracedb::AlertKind::kShortCalls;
  alert.enclave_id = 1;
  alert.type = tracedb::CallType::kEcall;
  alert.call_id = 3;
  alert.onset_ns = 42;
  alert.window_index = 0;
  alert.detail = 1000;
  const std::string raise = perf::alert_json(alert, false, "ecall_foo");
  EXPECT_EQ(raise.rfind("{\"schema_version\":1,", 0), 0u) << raise;
  EXPECT_NE(raise.find("\"event\":\"raise\""), std::string::npos);
  EXPECT_NE(raise.find("\"site\":\"ecall_foo\""), std::string::npos);
  alert.resolved_ns = 99;
  const std::string resolve = perf::alert_json(alert, true, "ecall_foo");
  EXPECT_NE(resolve.find("\"event\":\"resolve\""), std::string::npos);
  EXPECT_NE(resolve.find("\"resolved_ns\":99"), std::string::npos);
}

TEST(MonitorSession, NotOkWhenSubscriberSlotsExhausted) {
  tracedb::TraceDatabase db;
  perf::Logger logger(db);
  std::vector<std::unique_ptr<perf::MonitorSession>> sessions;
  // Exhaust the hub: sessions stop being ok() at some finite depth.
  bool saturated = false;
  for (int i = 0; i < 64; ++i) {
    auto s = std::make_unique<perf::MonitorSession>(logger);
    if (!s->ok()) {
      saturated = true;
      break;
    }
    sessions.push_back(std::move(s));
  }
  EXPECT_TRUE(saturated) << "subscriber slots must be finite";
}

// --- Locks -------------------------------------------------------------------
//
// Every window row, window-site row (p50/p99 included), alert record, alert
// transition and sink delta (buckets, count, sum) of a deterministic
// one-thread `mixed` session of a few thousand 1 ms windows, driven the way
// the live-monitor wall-clock benchmark drives it (steps, then poll).  The
// byte-level lock behind any change to window closing.

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char ch : s) h = (h ^ ch) * 0x100000001b3ull;
  return h;
}

/// Appends the decimal rendering of each value, space-separated.
template <typename... Ts>
void put(std::string& out, const Ts&... vs) {
  ((out += std::to_string(static_cast<unsigned long long>(vs)), out += ' '), ...);
  out += '\n';
}

/// Sink side of the lock: alert transitions as JSON lines and every window
/// delta's non-zero buckets.
class TableSink : public perf::MonitorSink {
 public:
  void on_alert(const tracedb::AlertRecord& alert, bool resolved,
                const std::string& site_name) override {
    text += perf::alert_json(alert, resolved, site_name) + "\n";
  }
  void on_window(const tracedb::WindowRecord& window,
                 const std::vector<perf::SessionWindowSite>& sites) override {
    put(text, window.window_index, sites.size());
    for (const auto& s : sites) {
      text += s.name + " ";
      put(text, s.row.call_id, s.delta.count(), s.delta.sum());
      const auto& buckets = s.delta.buckets();
      for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] != 0) put(text, i, buckets[i]);
      }
    }
  }

  std::string text;
};

struct WindowTables {
  std::string text;
  std::size_t windows = 0;
  std::size_t window_sites = 0;
  std::size_t alerts = 0;
};

WindowTables window_tables() {
  sgxsim::Urts urts(sgxsim::CostModel::preset(sgxsim::PatchLevel::kUnpatched));
  const auto stressor = stress::make_stressor("mixed");
  if (stressor == nullptr) throw std::runtime_error("unknown stressor");
  stress::StressConfig scfg;
  scfg.threads = 1;
  scfg.seed = 41;
  // prepare() faults in more than the EPC, so it runs before the session
  // subscribes (as in the benchmark).
  stressor->prepare(urts, scfg);

  tracedb::TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);
  perf::MonitorSessionConfig config;
  config.identity = {"lock-host", "stress_mixed"};
  config.online.window_ns = 1'000'000;
  perf::MonitorSession session(logger, urts, config);
  if (!session.ok()) throw std::runtime_error("no subscriber slot");
  const auto sink = std::make_shared<TableSink>();
  session.add_sink(sink);

  constexpr std::uint64_t kSteps = 12'000;
  for (std::uint64_t step = 0; step < kSteps; ++step) {
    stressor->step(urts, 0, step);
    if (step % 4 == 3) session.poll();
  }
  session.poll();
  logger.detach();
  session.finish();

  WindowTables out;
  const auto& online = session.analyzer();
  std::string& text = out.text;
  text += "== windows\n";
  for (const auto& w : online.windows()) {
    put(text, w.window_index, w.start_ns, w.end_ns, w.calls, w.aexs, w.page_ins, w.page_outs,
        w.stream_dropped, w.switchless_calls, w.switchless_fallbacks, w.switchless_wasted_ns,
        w.active_alerts);
  }
  text += "== window sites\n";
  for (const auto& s : online.window_sites()) {
    put(text, s.window_index, s.enclave_id, static_cast<int>(s.type), s.call_id, s.calls,
        s.aex_count, s.p50_ns, s.p99_ns);
  }
  text += "== alerts\n";
  for (const auto& a : online.alerts()) {
    put(text, static_cast<int>(a.kind), a.enclave_id, static_cast<int>(a.type), a.call_id,
        a.onset_ns, a.resolved_ns, a.window_index, a.detail);
  }
  text += "== sink\n" + sink->text;
  out.windows = online.windows().size();
  out.window_sites = online.window_sites().size();
  out.alerts = online.alerts().size();
  return out;
}

TEST(OnlineLocks, WindowTablesMatchGoldenDigest) {
  constexpr std::uint64_t kDigest = 0x35d813bbf019c6ffull;
  const WindowTables got = window_tables();
  const std::uint64_t digest = fnv1a(got.text);
  if (digest != kDigest) {
    // Leave the actual tables next to the test for a line diff.
    std::ofstream("online_window_tables.actual.txt", std::ios::binary) << got.text;
  }
  EXPECT_EQ(got.windows, 7097u);
  EXPECT_EQ(got.window_sites, 33548u);
  EXPECT_EQ(got.alerts, 395u);
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(digest));
  EXPECT_EQ(digest, kDigest) << "window tables drifted (digest " << hex
                            << "); the actual tables are in online_window_tables.actual.txt";
}

}  // namespace
