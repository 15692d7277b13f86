// sgxperf — offline analysis of recorded traces.
//
// The real tool's workflow is record-then-analyse: the logger serialises all
// events to a database, and the analyser is run on it afterwards, possibly
// many times with different options.  This CLI provides that second half.
// Every verb is one row of `kVerbs` (near the end of this file): its
// positionals, the trace sections it opens, the flags it takes and its
// handler.  `usage()` prints that table, and `parse_args` rejects any flag a
// verb's row does not list.
//
// `record` exercises the first half on a built-in multi-threaded workload:
// it attaches the logger (sharded per-thread buffers), runs N threads of
// ecall+ocall pairs, merges the shards and saves the trace — useful as a
// quick source of traces for the other commands and as a smoke test of the
// concurrent recording path.
//
// `top` is the third workflow: neither record-then-analyse nor post-mortem,
// but live.  It attaches the logger to a running workload and repaints
// calls/s, per-site latency percentiles, AEX rate and EPC residency while the
// workload is still in flight, from the closed windows of a monitor session
// (perf::TopSink on perf/session.hpp's loop).
//
// `monitor` is `top`'s daemon sibling on the same session loop: instead of
// rendering frames it emits every alert transition of the online analyser
// (perf/online.hpp) as a JSON line on stderr the moment the predicate flips,
// and persists the windowed time-series + alert history into the trace.  On a
// quiesced run its end-of-run verdicts equal `sgxperf report`'s findings.
//
// `serve` is the fleet half: a daemon that ingests binary alert/window
// frames (fleet/wire.hpp) from N `monitor --fleet` producers over a UNIX
// socket, merges the per-site HDR deltas into one keyed time-series and
// answers `fleet` queries over a second socket.  `fleet --corpus` runs the
// built-in deterministic 3-producer stress corpus in-process instead — the
// CI golden gate for the whole pipeline.
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "fleet/corpus.hpp"
#include "fleet/server.hpp"
#include "fleet/wire.hpp"
#include "minidb/enclave_db.hpp"
#include "minidb/workload.hpp"
#include "minikv/driver.hpp"
#include "perf/analyzer.hpp"
#include "perf/calltree.hpp"
#include "perf/compare.hpp"
#include "perf/logger.hpp"
#include "perf/online.hpp"
#include "perf/session.hpp"
#include "perf/timeline.hpp"
#include "perf/report.hpp"
#include "replay/engine.hpp"
#include "replay/render.hpp"
#include "sgxsim/edl.hpp"
#include "sgxsim/runtime.hpp"
#include "stress/harness.hpp"
#include "support/json.hpp"
#include "support/strutil.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/ledger.hpp"
#include "telemetry/prometheus.hpp"
#include "tracedb/open.hpp"
#include "tracedb/query.hpp"
#include "tracedb/store/store.hpp"

namespace {

/// The rankings `fleet top --by` accepts.
constexpr std::string_view kRankings = "p99|transitions|paging";

/// Everything a command line can set.  `parse_args` fills in only the
/// positionals and flags the verb's row names; the rest keep these defaults.
struct Options {
  std::vector<std::string> args;       // positionals, as the verb's synopsis names them
  std::set<std::string_view> given;    // flags present on the command line
  std::string edl_path;
  std::string call_name;
  std::string chrome_path;
  tracedb::EnclaveId enclave_id = 1;
  std::size_t bins = 100;
  std::size_t threads = 4;
  std::size_t calls = 1000;
  support::Nanoseconds sample_ns = 0;  // 0 = telemetry sampling off
  bool json = false;
  bool tree = false;                   // flamegraph: indented tree, not stacks
  std::string workload = "demo";       // demo | kv | db
  std::size_t frames = 5;
  std::size_t interval_ms = 100;
  support::Nanoseconds window_ns = 0;  // 0 = the verb's default
  std::string alert_log_path;
  std::string out_path;
  std::string stressor;
  support::Nanoseconds duration_ns = 200'000'000;  // virtual-time budget
  std::size_t intensity = 1;
  std::uint64_t seed = 42;
  std::string switchless_site;
  std::string eliminate_site;
  std::string merge_site;
  std::string workers_range = "1..8";  // N or A..B
  std::string cost_profile;            // unpatched | spectre | l1tf
  std::string recorded_profile = "unpatched";
  std::size_t epc_mb = 0;              // 0 = the default EPC
  bool all_recommendations = false;
  bool whatif = false;
  std::string socket_path;
  std::string query_socket_path;
  std::size_t retention = 256;
  std::string checkpoint_path;
  std::uint64_t checkpoint_every = 0;
  std::uint64_t idle_exit_ms = 0;      // 0 = run forever
  std::string fleet_socket;
  std::string fleet_host = "localhost";
  std::string rank_by = "p99";         // one of kRankings
  std::size_t top_n = 10;
  bool corpus = false;
  std::string model_path;              // --model (order check), --order-model (monitor, stress)
  std::string embed_path;
  bool prom = false;
  std::uint64_t max_loss = 0;
  std::string prom_out_path;
  std::uint64_t self_stat_ms = 0;
  perf::AnalyzerConfig config;
};

/// The trace a verb reads: its first positional, opened with the verb's
/// sections.  Default-constructed (empty) for a verb that opens none.
struct Trace {
  tracedb::OpenStats io;  // before `db`: db's initialiser fills it
  tracedb::TraceDatabase db;

  Trace() = default;
  Trace(const std::string& path, unsigned sections)
      : db(tracedb::open_trace(path, sections, &io)) {}
};

/// Runs `fn`; when it throws, prints "error: <what>" and returns false.
template <typename Fn>
bool reported(Fn&& fn) {
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return false;
  }
}

/// Saves `db` to `path` unless `path` is empty.
void save_to(const tracedb::TraceDatabase& db, const std::string& path) {
  if (!path.empty()) tracedb::save_trace(db, path);
}

/// Writes `data` to the file `path`; false after printing the error.
bool write_file(const std::string& path, std::string_view data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::size_t written = std::fwrite(data.data(), 1, data.size(), f);
  if (std::fclose(f) != 0 || written != data.size()) {
    std::fprintf(stderr, "error: short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

/// Parses a non-negative number that fits `T`: no sign, no trailing
/// characters, no overflow; whole for integer `T`, finite for floating `T`.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  if constexpr (std::is_signed_v<T>) {
    if (value < 0) return std::nullopt;
  }
  return value;
}

/// Prints `text` to stdout; the exit status of a verb that succeeded.
int to_stdout(const std::string& text) {
  std::fputs(text.c_str(), stdout);
  return 0;
}

/// Splits `text` at each `separator`.
std::vector<std::string_view> words(std::string_view text, char separator = ' ') {
  std::vector<std::string_view> out;
  while (!text.empty()) {
    const auto end = text.find(separator);
    out.push_back(text.substr(0, end));
    text = end == std::string_view::npos ? std::string_view() : text.substr(end + 1);
  }
  return out;
}

/// One command-line flag.  A switch has no `value`; any other flag takes the
/// next argument, which `value` names in the usage text and `set` stores
/// (false: not what `want` describes).
struct Flag {
  std::string_view name;
  std::string_view value;
  std::string_view help;
  std::function<bool(const char* text)> set;
  std::string_view want = "a non-negative number";
};

std::function<bool(const char*)> text(std::string& field) {
  return [&field](const char* v) {
    field = v;
    return true;
  };
}

std::function<bool(const char*)> on(bool& field) {
  return [&field](const char*) {
    field = true;
    return true;
  };
}

/// A text flag whose value must be one of the '|'-separated `choices`.
std::function<bool(const char*)> one_of(std::string& field, std::string_view choices) {
  return [&field, choices](const char* v) {
    for (const auto choice : words(choices, '|')) {
      if (choice == v) {
        field = v;
        return true;
      }
    }
    return false;
  };
}

template <typename T>
std::function<bool(const char*)> number(T& field) {
  return [&field](const char* v) {
    const auto n = parse_number<T>(v);
    if (n) field = *n;
    return n.has_value();
  };
}

/// Every flag of every verb, bound to the fields of `o`.
std::vector<Flag> flag_table(Options& o) {
  auto& c = o.config;
  return {
      {"--edl", "FILE", "enclave EDL for security analysis", text(o.edl_path)},
      {"--enclave", "ID", "enclave id the EDL/call belongs to (default 1)", number(o.enclave_id)},
      {"--call", "NAME", "call to plot (as shown by 'stats')", text(o.call_name)},
      {"--bins", "N", "histogram bins (default 100)", number(o.bins)},
      {"--json", "", "machine-readable JSON on stdout", on(o.json)},
      {"--eq1-alpha", "X", "Eq. 1 weight alpha", number(c.eq1_alpha)},
      {"--eq1-beta", "X", "Eq. 1 weight beta", number(c.eq1_beta)},
      {"--eq1-gamma", "X", "Eq. 1 weight gamma", number(c.eq1_gamma)},
      {"--eq2-gamma", "X", "Eq. 2 threshold", number(c.eq2_gamma)},
      {"--eq3-epsilon", "X", "Eq. 3 weight epsilon", number(c.eq3_epsilon)},
      {"--eq3-lambda", "X", "Eq. 3 weight lambda", number(c.eq3_lambda)},
      {"--transition-ns", "N", "ecall transition ns (default 4205)", number(c.ecall_transition_ns)},
      {"--chrome", "FILE", "write Chrome trace-event JSON to FILE", text(o.chrome_path)},
      {"--prom", "", "Prometheus text exposition format on stdout", on(o.prom)},
      {"--tree", "", "indented call tree instead of collapsed stacks", on(o.tree)},
      {"--threads", "N", "worker threads (default 4)", number(o.threads)},
      {"--calls", "N", "calls per thread (default 1000)", number(o.calls)},
      {"--sample-ns", "N", "telemetry sample period, virtual ns (0 = off)", number(o.sample_ns)},
      {"--workload", "W", "demo, kv (minikv) or db (minidb)", text(o.workload)},
      {"--frames", "N", "frames to render before exiting (default 5)", number(o.frames)},
      {"--interval-ms", "N", "poll/repaint interval, wall ms (default 100)", number(o.interval_ms)},
      {"--window", "NS", "window, virtual ns (top: cumulative; monitor: 1ms)", number(o.window_ns)},
      {"--alert-log", "FILE", "also append alert JSON lines to FILE", text(o.alert_log_path)},
      {"--fleet", "PATH", "also stream wire frames to this ingest socket", text(o.fleet_socket)},
      {"--fleet-host", "H", "producer host for --fleet (default localhost)", text(o.fleet_host)},
      {"--order-model", "FILE", "raise orderliness alerts against a spec", text(o.model_path)},
      {"--out", "FILE", "write the trace, model spec or store to FILE", text(o.out_path)},
      {"--stressor", "NAME", "cpu, vm, sync, ocall-storm, mixed, order(-clean)", text(o.stressor)},
      {"--duration", "NS", "virtual-time budget (default 200000000)", number(o.duration_ns)},
      {"--intensity", "N", "per-op payload scale (default 1)", number(o.intensity)},
      {"--seed", "N", "rng seed; fixed seed => deterministic bogo-ops", number(o.seed)},
      {"--epc-mb", "N", "EPC size in MiB (whatif: re-simulate faults)", number(o.epc_mb)},
      {"--switchless", "SITE", "serve SITE via in-enclave workers", text(o.switchless_site)},
      {"--workers", "N|A..B", "worker count or sweep range (default 1..8)", text(o.workers_range)},
      {"--eliminate", "SITE", "remove SITE's transition overhead", text(o.eliminate_site)},
      {"--merge", "SITE", "merge SITE into its indirect parents (Eq. 3)", text(o.merge_site)},
      {"--cost-profile", "P", "re-cost as unpatched, spectre or l1tf", text(o.cost_profile)},
      {"--recorded-profile", "P", "profile of the recording (unpatched)", text(o.recorded_profile)},
      {"--all-recommendations", "", "rank every recommendation", on(o.all_recommendations)},
      {"--whatif", "", "diff against a replayed scenario", on(o.whatif)},
      {"--socket", "PATH", "ingest UNIX socket producers connect to", text(o.socket_path)},
      {"--query-socket", "PATH", "query UNIX socket of a serve daemon", text(o.query_socket_path)},
      {"--retention", "N", "fleet windows retained (default 256)", number(o.retention)},
      {"--checkpoint", "FILE", "persist the fleet series as a trace", text(o.checkpoint_path)},
      {"--checkpoint-every", "N", "windows per checkpoint (0 = exit)", number(o.checkpoint_every)},
      {"--idle-exit-ms", "N", "exit after N idle ms (0 = never)", number(o.idle_exit_ms)},
      {"--prom-out", "FILE", "atomic Prometheus snapshot per checkpoint", text(o.prom_out_path)},
      {"--self-stat-ms", "N", "a status JSON line on stderr every N ms", number(o.self_stat_ms)},
      {"--by", kRankings, "fleet ranking (default p99)", one_of(o.rank_by, kRankings), kRankings},
      {"--n", "N", "rows to return (default 10)", number(o.top_n)},
      {"--corpus", "", "the built-in 3-producer stress corpus", on(o.corpus)},
      {"--model", "FILE", "spec to check (default: embedded rules)", text(o.model_path)},
      {"--embed", "FILE", "copy the trace with the rules embedded", text(o.embed_path)},
      {"--max-loss", "N", "attributed-drop budget before exit 3 (0)", number(o.max_loss)},
  };
}

constexpr const char* kDemoEdl = R"(
enclave {
  trusted {
    public int ecall_with_ocall(void);
  };
  untrusted {
    void ocall_noop(void);
  };
};
)";

sgxsim::SgxStatus demo_ocall(void*) { return sgxsim::SgxStatus::kSuccess; }

/// Drives the built-in demo enclave: `threads` workers, each issuing `calls`
/// ecall+ocall pairs.  Shared by `record` and `top --workload demo`.
void run_demo_workload(sgxsim::Urts& urts, std::size_t threads, std::size_t calls) {
  using namespace sgxsim;
  EnclaveConfig config;
  config.name = "demo";
  config.tcs_count = threads + 1;
  const EnclaveId eid = urts.create_enclave(std::move(config), edl::parse(kDemoEdl));
  urts.enclave(eid).register_ecall("ecall_with_ocall", [](TrustedContext& ctx, void*) {
    ctx.work(500);
    return ctx.ocall(0, nullptr);
  });
  OcallTable table = make_ocall_table({&demo_ocall});

  const auto body = [&] {
    for (std::size_t i = 0; i < calls; ++i) {
      urts.sgx_ecall(eid, 0, &table, nullptr);
    }
  };
  if (threads == 1) {
    body();
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) workers.emplace_back(body);
    for (auto& w : workers) w.join();
  }
}

/// Validates the flags that size a built-in workload run: --threads, --calls
/// and the --workload name.
bool check_workload(const Options& opts) {
  if (opts.threads == 0 || opts.calls == 0) {
    std::fputs("error: --threads and --calls must be > 0\n", stderr);
    return false;
  }
  if (opts.workload == "demo" || opts.workload == "kv" || opts.workload == "db") return true;
  std::fprintf(stderr, "error: unknown workload '%s' (demo, kv, db)\n", opts.workload.c_str());
  return false;
}

/// `sgxperf record`: run the built-in demo workload (--threads workers, each
/// issuing --calls ecall+ocall pairs) through the sharded logger and save the
/// merged trace to <out.bin>.
int run_record(const Options& opts, Trace&) {
  if (!check_workload(opts)) return 2;
  sgxsim::Urts urts;
  tracedb::TraceDatabase db;
  perf::LoggerConfig logger_config;
  logger_config.metric_sample_period_ns = opts.sample_ns;
  perf::Logger logger(db, logger_config);
  logger.attach(urts);

  run_demo_workload(urts, opts.threads, opts.calls);
  logger.detach();  // seals + merges the per-thread shards

  const auto stats = db.merge_stats();
  const std::string& out = opts.args[0];
  tracedb::save_trace(db, out);
  if (opts.json) {
    support::json::Writer w;
    w.begin_object();
    w.kv("schema_version", support::json::kSchemaVersion);
    w.kv("calls", static_cast<std::uint64_t>(db.calls().size()));
    w.kv("aexs", static_cast<std::uint64_t>(db.aexs().size()));
    w.kv("paging", static_cast<std::uint64_t>(db.paging().size()));
    w.kv("syncs", static_cast<std::uint64_t>(db.syncs().size()));
    w.kv("shards_registered", static_cast<std::uint64_t>(db.shard_count()));
    w.kv("shards_merged", static_cast<std::uint64_t>(stats.shards_merged));
    w.kv("merges", static_cast<std::uint64_t>(stats.merges));
    w.kv("dropped_events", static_cast<std::uint64_t>(stats.dropped));
    w.kv("metric_series", static_cast<std::uint64_t>(db.metric_series().size()));
    w.kv("metric_samples", static_cast<std::uint64_t>(db.metric_samples().size()));
    w.kv("trace", out);
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("recorded %zu calls, %zu AEXs, %zu paging events, %zu syncs\n", db.calls().size(),
                db.aexs().size(), db.paging().size(), db.syncs().size());
    std::printf("shards: %zu registered, %zu merged in %zu merge(s), %zu events dropped\n",
                db.shard_count(), stats.shards_merged, stats.merges, stats.dropped);
    if (db.metric_samples().size() > 0) {
      std::printf("telemetry: %zu metric series, %zu samples\n", db.metric_series().size(),
                  db.metric_samples().size());
    }
    std::printf("trace written to %s\n", out.c_str());
  }
  return 0;
}

/// Drives the selected built-in workload to completion — the body of the
/// worker thread `top` and `monitor` observe from the consumer side.
void run_named_workload(sgxsim::Urts& urts, const Options& opts) {
  if (opts.workload == "kv") {
    minikv::Store store(urts.clock());
    minikv::KvProxy proxy(urts, store);
    minikv::DriverConfig config;
    config.clients = opts.threads;
    config.ops_per_client = opts.calls;
    minikv::run_workload(proxy, config);
  } else if (opts.workload == "db") {
    minidb::HostVfs vfs(urts.clock());
    minidb::DbEnclave dbe(urts, vfs, minidb::WriteMode::kSeekThenWrite);
    dbe.open("/top.db");
    minidb::CommitGenerator gen;
    for (std::size_t i = 0; i < opts.calls; ++i) {
      dbe.begin();
      for (const auto& [k, v] : gen.make(static_cast<std::uint64_t>(i)).to_records()) {
        dbe.put_in_txn(k, v);
      }
      dbe.commit();
    }
    dbe.close_db();
  } else {
    run_demo_workload(urts, opts.threads, opts.calls);
  }
}

/// Session settings shared by `top`, `monitor` and `doctor --workload`.
perf::MonitorSessionConfig live_session_config(const Options& opts, std::string name) {
  perf::MonitorSessionConfig scfg;
  scfg.identity = {opts.fleet_host, opts.workload};
  scfg.subscription_name = std::move(name);
  scfg.online.analyzer = opts.config;
  if (opts.window_ns > 0) scfg.online.window_ns = opts.window_ns;
  return scfg;
}

/// The live half of `top`, `monitor` and `doctor --workload`: the selected
/// workload runs on a worker thread while `session` pumps the stream on this
/// one (`idle` runs here after each empty-poll wait), then the run is sealed
/// — the logger detaches (shards merged) and the session finishes.
void run_live(sgxsim::Urts& urts, perf::Logger& logger, perf::MonitorSession& session,
              const Options& opts, const std::function<void()>& idle = {}) {
  std::atomic<bool> done{false};
  std::thread worker([&] {
    run_named_workload(urts, opts);
    done.store(true, std::memory_order_release);
  });
  session.pump(done, opts.interval_ms, idle);
  worker.join();
  logger.detach();   // workload quiesced: seals and merges the shards
  session.finish();  // resolves stale alerts, emits stats/bye to the sinks
}

/// `sgxperf top`: attach the logger to a live workload and repaint aggregate
/// statistics while it runs.  The frames come from a perf::TopSink on the
/// same session loop `monitor` runs: the logger is never detached between
/// frames, and everything shown comes through the streaming subscription's
/// closed windows, not the merged trace.
int run_top(const Options& opts, Trace&) {
  if (opts.frames == 0) {
    std::fputs("error: --frames must be > 0\n", stderr);
    return 2;
  }
  if (!check_workload(opts)) return 2;

  sgxsim::Urts urts;
  tracedb::TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);
  perf::MonitorSession session(logger, urts, live_session_config(opts, "top"));
  if (!session.ok()) {
    std::fputs("error: no free streaming subscriber slot\n", stderr);
    return 1;
  }
  auto top = std::make_shared<perf::TopSink>(db, urts.driver(), opts.window_ns > 0);
  session.add_sink(top);

  // Repaint in place on a terminal; emit sequential frames when piped.
  const bool tty = isatty(fileno(stdout)) != 0;
  const auto draw = [&] {
    if (tty) std::fputs("\x1b[2J\x1b[H", stdout);
    std::fputs(top->render_frame().c_str(), stdout);
  };
  // pump() waits --interval-ms before each idle call: one frame per wait
  // while the workload runs, keeping the last of --frames for the end.
  std::size_t drawn = 0;
  run_live(urts, logger, session, opts, [&] {
    if (drawn + 1 >= opts.frames) return;
    draw();
    if (!tty) std::fputs("\n", stdout);
    std::fflush(stdout);
    ++drawn;
  });
  draw();  // the final frame: the session is sealed, every window is in

  std::printf("\nworkload '%s' finished: %llu calls observed live, %llu dropped by the "
              "subscriber (trace recorded %zu calls)\n",
              opts.workload.c_str(), static_cast<unsigned long long>(top->total_calls()),
              static_cast<unsigned long long>(top->dropped()), db.calls().size());
  return 0;
}

/// `sgxperf monitor`: the daemon sibling of `top`.  Runs the workload with
/// the logger attached and a perf::MonitorSession (the embeddable consumer
/// loop) watching it: alert transitions stream to stderr and --alert-log as
/// JSON lines the moment the predicate flips, wire frames stream to a serve
/// daemon when --fleet names an ingest socket, a status line with the loss
/// counters goes to stderr about once a second, and finish() seals the run —
/// stale alerts resolve, the window time-series and alert history persist
/// into the trace, and a summary goes to stdout.
int run_monitor(const Options& opts, Trace&) {
  if (!check_workload(opts)) return 2;

  sgxsim::Urts urts;
  tracedb::TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);

  // Subscribe before the workload starts so no event predates the ring, and
  // size the ring generously: a dropped event would skew the online state.
  perf::MonitorSessionConfig scfg = live_session_config(opts, "monitor");
  if (!opts.model_path.empty()) {
    if (!reported([&] { scfg.online.order = perf::load_model_spec(opts.model_path); })) return 2;
  }
  perf::MonitorSession session(logger, urts, scfg);
  if (!session.ok()) {
    std::fputs("error: no free streaming subscriber slot\n", stderr);
    return 1;
  }

  session.add_sink(std::make_shared<perf::JsonLinesSink>(stderr));
  std::FILE* alert_log = nullptr;
  if (!opts.alert_log_path.empty()) {
    alert_log = std::fopen(opts.alert_log_path.c_str(), "wb");
    if (alert_log == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for writing\n", opts.alert_log_path.c_str());
      return 1;
    }
    session.add_sink(std::make_shared<perf::JsonLinesSink>(alert_log));
  }
  int fleet_fd = -1;
  std::shared_ptr<fleet::FrameSink> fleet_sink;
  if (!opts.fleet_socket.empty()) {
    fleet_fd = fleet::connect_ingest(opts.fleet_socket);
    if (fleet_fd < 0) {
      std::fprintf(stderr, "error: cannot connect to fleet ingest socket %s: %s\n",
                   opts.fleet_socket.c_str(), std::strerror(errno));
      if (alert_log != nullptr) std::fclose(alert_log);
      return 1;
    }
    // Best-effort: a vanished daemon drops frames, it never kills the run.
    // MSG_NOSIGNAL turns the SIGPIPE a dead daemon would raise into EPIPE,
    // and `daemon_gone` stops further frame writes after the first failure.
    auto daemon_gone = std::make_shared<bool>(false);
    fleet_sink = std::make_shared<fleet::FrameSink>(
        [fleet_fd, daemon_gone](const char* data, std::size_t size) {
          if (*daemon_gone) return false;
          while (size > 0) {
            const ssize_t n = ::send(fleet_fd, data, size, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) {
              *daemon_gone = true;
              std::fprintf(stderr, "monitor: fleet daemon unreachable (%s), frames dropped\n",
                           n < 0 ? std::strerror(errno) : "closed");
              return false;
            }
            data += n;
            size -= static_cast<std::size_t>(n);
          }
          return true;
        });
    session.add_sink(fleet_sink);
  }

  // A status line about once a second while the workload runs: the loss
  // counters of the subscription and the sealed shards, mid-run.
  using Clock = std::chrono::steady_clock;
  auto next_status = Clock::now() + std::chrono::seconds(1);
  run_live(urts, logger, session, opts, [&] {
    if (Clock::now() < next_status) return;
    const auto st = session.stats();
    std::fprintf(stderr,
                 "monitor: %llu events, alerts %llu/%llu, stream_dropped=%llu "
                 "sealed_dropped=%llu pending_evicted=%llu\n",
                 static_cast<unsigned long long>(st.events),
                 static_cast<unsigned long long>(st.alerts_raised),
                 static_cast<unsigned long long>(st.alerts_resolved),
                 static_cast<unsigned long long>(st.stream_dropped),
                 static_cast<unsigned long long>(st.sealed_dropped),
                 static_cast<unsigned long long>(st.pending_evicted));
    next_status = Clock::now() + std::chrono::seconds(1);
  });
  session.persist();
  if (alert_log != nullptr) std::fclose(alert_log);
  if (fleet_fd >= 0) ::close(fleet_fd);

  save_to(db, opts.out_path);

  const auto& online = session.analyzer();
  const auto stats = session.stats();
  const auto active = online.active_alerts();
  if (opts.json) {
    support::json::Writer w;
    w.begin_object();
    w.kv("schema_version", support::json::kSchemaVersion);
    w.kv("workload", opts.workload);
    w.kv("events", stats.events);
    w.kv("windows", static_cast<std::uint64_t>(online.windows().size()));
    w.kv("window_ns", static_cast<std::uint64_t>(scfg.online.window_ns));
    w.kv("alerts_raised", stats.alerts_raised);
    w.kv("alerts_resolved", stats.alerts_resolved);
    w.kv("alerts_active", static_cast<std::uint64_t>(active.size()));
    w.kv("stream_dropped", stats.stream_dropped);
    w.kv("sealed_dropped", stats.sealed_dropped);
    w.kv("pending_evicted", stats.pending_evicted);
    // The session's event-conservation ledger (DESIGN.md §13): machine-
    // readable loss accounting, per pipeline stage, in the final summary.
    telemetry::Ledger led = session.ledger();
    if (fleet_sink != nullptr) fleet_sink->fill_ledger(led);
    w.key("ledger");
    led.write_json(w);
    w.kv("conservation_ok", led.audit().ok);
    if (!opts.out_path.empty()) w.kv("trace", opts.out_path);
    w.end_object();
    std::printf("%s\n", w.take().c_str());
  } else {
    std::printf("monitor: workload '%s' finished — %llu events in %zu windows of %.3fms\n",
                opts.workload.c_str(), static_cast<unsigned long long>(stats.events),
                online.windows().size(), static_cast<double>(scfg.online.window_ns) / 1e6);
    std::printf("alerts: %llu raised, %llu resolved, %zu active at end of run\n",
                static_cast<unsigned long long>(stats.alerts_raised),
                static_cast<unsigned long long>(stats.alerts_resolved), active.size());
    for (const auto& a : active) {
      std::printf("  ACTIVE %-14s %s (onset %.3fms)\n", perf::to_string(a.kind),
                  a.kind == tracedb::AlertKind::kPaging
                      ? support::format("enclave %llu",
                                        static_cast<unsigned long long>(a.enclave_id))
                            .c_str()
                      : db.name_of(a.enclave_id, a.type, a.call_id).c_str(),
                  static_cast<double>(a.onset_ns) / 1e6);
    }
    if (stats.stream_dropped > 0 || stats.sealed_dropped > 0 || stats.pending_evicted > 0) {
      std::printf("warning: %llu stream events dropped, %llu sealed-shard drops, "
                  "%llu pending children evicted — online verdicts may undercount\n",
                  static_cast<unsigned long long>(stats.stream_dropped),
                  static_cast<unsigned long long>(stats.sealed_dropped),
                  static_cast<unsigned long long>(stats.pending_evicted));
    }
    telemetry::Ledger led = session.ledger();
    if (fleet_sink != nullptr) fleet_sink->fill_ledger(led);
    std::fputs(led.render_table().c_str(), stdout);
    if (!opts.out_path.empty()) std::printf("trace written to %s\n", opts.out_path.c_str());
  }
  return 0;
}

// `serve` must shut down cleanly on SIGINT/SIGTERM (final checkpoint, socket
// unlink); Server::stop() is async-signal-safe by design (self-pipe).
fleet::Server* g_serve_instance = nullptr;

void serve_signal_handler(int) {
  if (g_serve_instance != nullptr) g_serve_instance->stop();
}

/// `sgxperf serve`: the fleet aggregation daemon.  Listens on --socket for
/// producer streams (`sgxperf monitor --fleet`, or any MonitorSession with a
/// FrameSink), merges them into the keyed fleet time-series, and answers
/// queries on --query-socket until SIGINT/SIGTERM or idle-exit.
int run_serve(const Options& opts, Trace&) {
  if (opts.socket_path.empty()) {
    std::fputs("error: serve requires --socket PATH (the ingest socket)\n", stderr);
    return 2;
  }
  fleet::ServerConfig cfg;
  cfg.ingest_path = opts.socket_path;
  cfg.query_path = opts.query_socket_path;
  cfg.aggregator.retention_windows = opts.retention;
  cfg.checkpoint_path = opts.checkpoint_path;
  cfg.checkpoint_every_windows = opts.checkpoint_every;
  cfg.idle_exit_ms = opts.idle_exit_ms;
  cfg.prom_out_path = opts.prom_out_path;
  cfg.self_stat_interval_ms = opts.self_stat_ms;
  fleet::Server server(cfg);
  if (!server.start()) return 1;

  g_serve_instance = &server;
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  std::fprintf(stderr, "serve: ingest %s%s%s\n", opts.socket_path.c_str(),
               opts.query_socket_path.empty() ? "" : ", query ",
               opts.query_socket_path.c_str());

  const std::uint64_t producers = server.run();
  g_serve_instance = nullptr;

  if (opts.json) {
    std::printf("%s\n", server.aggregator().snapshot_json().c_str());
  } else {
    std::printf("serve: %llu producer stream(s), %llu fleet windows merged\n",
                static_cast<unsigned long long>(producers),
                static_cast<unsigned long long>(server.aggregator().windows_merged()));
    if (!opts.checkpoint_path.empty()) {
      std::printf("fleet checkpoint written to %s\n", opts.checkpoint_path.c_str());
    }
  }
  return 0;
}

/// `sgxperf fleet`: send `request` to a running serve daemon
/// (--query-socket) — or to the built-in deterministic 3-producer stress
/// corpus aggregated in-process (--corpus, the CI golden path).  Output is
/// always one JSON document on stdout.
int run_fleet(const Options& opts, const std::string& request) {
  std::string response;
  if (opts.corpus) {
    fleet::Aggregator agg({opts.retention});
    fleet::run_corpus(agg, fleet::default_corpus());
    response = agg.query(request);
    if (!opts.out_path.empty()) {
      tracedb::TraceDatabase db;
      agg.checkpoint(db);
      save_to(db, opts.out_path);
    }
  } else if (!opts.query_socket_path.empty()) {
    response = fleet::query_server(opts.query_socket_path, request);
  } else {
    std::fputs("error: fleet needs --query-socket PATH (live daemon) or --corpus (built-in)\n",
               stderr);
    return 2;
  }
  std::printf("%s\n", response.c_str());
  return 0;
}

/// Emits a set of alert kinds as a JSON array of kind names.
void kinds_array(support::json::Writer& w, std::string_view key,
                 const std::set<tracedb::AlertKind>& kinds) {
  w.key(key);
  w.begin_array();
  for (const auto kind : kinds) w.value(perf::to_string(kind));
  w.end_array();
}

/// `sgxperf stress`: run one labeled stressor through the logger + online
/// analyser soak harness (src/stress/harness.hpp), report deterministic
/// bogo-ops and the label verdict, and optionally save the trace.  The
/// exit status reflects the verdict, so a stress run doubles as a detector
/// precision/recall check.
int run_stress(const Options& opts, Trace&) {
  const auto list_names = [] {
    std::string names;
    for (const auto& n : stress::stressor_names()) {
      if (!names.empty()) names += ", ";
      names += n;
    }
    return names;
  };
  if (opts.stressor.empty()) {
    std::fprintf(stderr, "error: stress requires --stressor NAME (%s)\n", list_names().c_str());
    return 2;
  }
  const auto stressor = stress::make_stressor(opts.stressor);
  if (stressor == nullptr) {
    std::fprintf(stderr, "error: unknown stressor '%s' (%s)\n", opts.stressor.c_str(),
                 list_names().c_str());
    return 2;
  }
  if (opts.threads == 0 || opts.duration_ns == 0) {
    std::fputs("error: --threads and --duration must be > 0\n", stderr);
    return 2;
  }

  const std::size_t epc_pages = opts.epc_mb > 0
                                    ? opts.epc_mb * (1024 * 1024 / sgxsim::kPageSize)
                                    : sgxsim::Driver::kDefaultEpcPages;
  sgxsim::Urts urts(sgxsim::CostModel::preset(sgxsim::PatchLevel::kUnpatched), epc_pages);
  tracedb::TraceDatabase db;

  stress::SoakConfig scfg;
  scfg.stress.threads = opts.threads;
  scfg.stress.duration_ns = opts.duration_ns;
  scfg.stress.intensity = opts.intensity;
  scfg.stress.seed = opts.seed;
  scfg.analyzer = opts.config;
  if (opts.window_ns > 0) scfg.window_ns = opts.window_ns;
  if (!opts.model_path.empty()) {
    if (!reported([&] { scfg.order = perf::load_model_spec(opts.model_path); })) return 2;
  }

  const stress::SoakResult result = stress::run_soak(*stressor, urts, db, scfg);

  save_to(db, opts.out_path);

  const auto& spec = stressor->spec();
  const perf::SessionStats& st = result.session;
  if (opts.json) {
    support::json::Writer w;
    w.begin_object();
    w.kv("schema_version", support::json::kSchemaVersion);
    w.kv("stressor", spec.name);
    w.kv("threads", static_cast<std::uint64_t>(opts.threads));
    w.kv("duration_ns", static_cast<std::uint64_t>(opts.duration_ns));
    w.kv("intensity", static_cast<std::uint64_t>(opts.intensity));
    w.kv("seed", opts.seed);
    w.kv("bogo_ops", result.stress.bogo_ops);
    w.kv("bogo_ops_per_vsec", result.stress.bogo_ops_per_vsec());
    w.kv("elapsed_ns", static_cast<std::uint64_t>(result.stress.elapsed_ns));
    w.key("per_thread_ops");
    w.begin_array();
    for (const auto ops : result.stress.per_thread_ops) w.value(ops);
    w.end_array();
    w.kv("events", st.events);
    w.kv("windows", result.windows);
    w.kv("alerts_raised", st.alerts_raised);
    w.kv("alerts_resolved", st.alerts_resolved);
    w.kv("stream_dropped", st.stream_dropped);
    w.kv("sealed_dropped", st.sealed_dropped);
    w.kv("pending_evicted", st.pending_evicted);
    kinds_array(w, "must_trigger", spec.must_trigger);
    kinds_array(w, "must_not", spec.must_not);
    kinds_array(w, "triggered", result.triggered);
    kinds_array(w, "missing", result.missing);
    kinds_array(w, "false_positives", result.false_positives);
    w.kv("labels_ok", result.labels_ok());
    if (!opts.out_path.empty()) w.kv("trace", opts.out_path);
    w.end_object();
    std::printf("%s\n", w.take().c_str());
  } else {
    std::printf("stress '%s': %llu bogo-ops in %.3fms virtual (%.0f bogo-ops/s), %zu thread(s)\n",
                spec.name.c_str(), static_cast<unsigned long long>(result.stress.bogo_ops),
                static_cast<double>(result.stress.elapsed_ns) / 1e6,
                result.stress.bogo_ops_per_vsec(), opts.threads);
    std::printf("observed: %llu events in %llu windows; alerts %llu raised / %llu resolved\n",
                static_cast<unsigned long long>(st.events),
                static_cast<unsigned long long>(result.windows),
                static_cast<unsigned long long>(st.alerts_raised),
                static_cast<unsigned long long>(st.alerts_resolved));
    const auto print_kinds = [](const char* label, const std::set<tracedb::AlertKind>& kinds) {
      std::printf("%s", label);
      if (kinds.empty()) std::printf(" (none)");
      for (const auto kind : kinds) std::printf(" %s", perf::to_string(kind));
      std::printf("\n");
    };
    print_kinds("labels expected:", spec.must_trigger);
    print_kinds("labels triggered:", result.triggered);
    if (result.labels_ok()) {
      std::printf("label verdict: OK (100%% recall, 0 false positives)\n");
    } else {
      print_kinds("labels MISSING:", result.missing);
      print_kinds("labels FALSE-POSITIVE:", result.false_positives);
    }
    if (st.stream_dropped > 0 || st.sealed_dropped > 0 || st.pending_evicted > 0) {
      std::printf("warning: %llu stream events dropped, %llu sealed-shard drops, "
                  "%llu pending children evicted\n",
                  static_cast<unsigned long long>(st.stream_dropped),
                  static_cast<unsigned long long>(st.sealed_dropped),
                  static_cast<unsigned long long>(st.pending_evicted));
    }
    if (!opts.out_path.empty()) std::printf("trace written to %s\n", opts.out_path.c_str());
  }
  return result.labels_ok() ? 0 : 1;
}

/// `sgxperf order learn`: distil a per-enclave protocol model (entries,
/// edges, re-entrancy whitelist, init phase) from a trusted baseline trace.
int run_order_learn(const Options& opts, Trace& trace) {
  const tracedb::TraceDatabase& db = trace.db;
  const auto model = perf::learn_model(db);
  const auto spec = perf::render_model_spec(model);
  const auto rules = perf::rules_from_model(model);
  if (!opts.out_path.empty() && !write_file(opts.out_path, spec)) return 1;
  if (!opts.embed_path.empty()) {
    tracedb::TraceDatabase copy = tracedb::open_trace(opts.args[0]);
    copy.set_order_rules(rules);
    tracedb::save_trace(copy, opts.embed_path);
  }
  if (opts.json) {
    support::json::Writer w;
    w.begin_object();
    w.kv("schema_version", support::json::kSchemaVersion);
    w.kv("trace", opts.args[0]);
    w.kv("rules", static_cast<std::uint64_t>(rules.size()));
    w.key("enclaves");
    w.begin_array();
    for (const auto& [eid, em] : model.enclaves) {
      w.begin_object();
      w.kv("enclave_id", eid);
      if (em.has_init) w.kv("init", static_cast<std::uint64_t>(em.init_call_id));
      const auto ids = [&w](const char* key, const std::set<tracedb::CallId>& set) {
        w.key(key);
        w.begin_array();
        for (const auto id : set) w.value(static_cast<std::uint64_t>(id));
        w.end_array();
      };
      ids("entries", em.entries);
      ids("ecalls", em.known);
      ids("reentrant", em.reentrant_ok);
      w.key("edges");
      w.begin_array();
      for (const auto& [a, b] : em.edges) {
        w.begin_array();
        w.value(static_cast<std::uint64_t>(a));
        w.value(static_cast<std::uint64_t>(b));
        w.end_array();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    if (!opts.out_path.empty()) w.kv("spec", opts.out_path);
    if (!opts.embed_path.empty()) w.kv("embedded", opts.embed_path);
    w.end_object();
    std::printf("%s\n", w.take().c_str());
  } else if (opts.out_path.empty()) {
    std::fputs(spec.c_str(), stdout);
  } else {
    std::printf("learned %zu rules over %zu enclave(s); spec written to %s\n", rules.size(),
                model.enclaves.size(), opts.out_path.c_str());
  }
  return 0;
}

/// `sgxperf order check`: replay a trace against a model — declared via
/// --model or embedded in a v6 trace — and report every violation, exiting 1
/// when any were found so CI can gate on protocol conformance.
int run_order_check(const Options& opts, Trace& trace) {
  const tracedb::TraceDatabase& db = trace.db;
  perf::OrderModel model;
  const char* source = "embedded";
  if (!opts.model_path.empty()) {
    if (!reported([&] { model = perf::load_model_spec(opts.model_path); })) return 2;
    source = opts.model_path.c_str();
  } else {
    model = perf::model_from_rules(db.order_rules());
  }
  if (model.empty()) {
    std::fputs("error: no order model: pass --model FILE or a trace with embedded rules\n",
               stderr);
    return 2;
  }

  const auto alerts = perf::check_trace(db, model);
  std::uint64_t total = 0;
  for (const auto& a : alerts) total += a.detail & 0xffffffffull;
  if (opts.json) {
    support::json::Writer w;
    w.begin_object();
    w.kv("schema_version", support::json::kSchemaVersion);
    w.kv("trace", opts.args[0]);
    w.kv("model", source);
    w.kv("enclaves_modelled", static_cast<std::uint64_t>(model.enclaves.size()));
    w.key("violations");
    w.begin_array();
    for (const auto& a : alerts) {
      w.begin_object();
      w.kv("kind", perf::to_string(a.kind));
      w.kv("enclave_id", a.enclave_id);
      w.kv("site", db.name_of(a.enclave_id, a.type, a.call_id));
      w.kv("call_id", static_cast<std::uint64_t>(a.call_id));
      w.kv("onset_ns", a.onset_ns);
      w.kv("first_thread", a.detail >> 32);
      w.kv("count", static_cast<std::uint64_t>(a.detail & 0xffffffffull));
      w.end_object();
    }
    w.end_array();
    w.kv("violation_sites", static_cast<std::uint64_t>(alerts.size()));
    w.kv("total_violations", total);
    w.end_object();
    std::printf("%s\n", w.take().c_str());
  } else if (alerts.empty()) {
    std::printf("order check: clean — no violations against %s model (%zu enclave(s))\n",
                source, model.enclaves.size());
  } else {
    std::printf("order check: %llu violation(s) at %zu site(s):\n",
                static_cast<unsigned long long>(total), alerts.size());
    for (const auto& a : alerts) {
      std::printf("  %-20s %s (enclave %llu, ecall %u): %llu violation(s), first on thread %llu "
                  "at %llu ns\n",
                  perf::to_string(a.kind), db.name_of(a.enclave_id, a.type, a.call_id).c_str(),
                  static_cast<unsigned long long>(a.enclave_id), a.call_id,
                  static_cast<unsigned long long>(a.detail & 0xffffffffull),
                  static_cast<unsigned long long>(a.detail >> 32),
                  static_cast<unsigned long long>(a.onset_ns));
    }
  }
  return alerts.empty() ? 0 : 1;
}

/// `sgxperf stats --json`: general statistics as a JSON document, one object
/// per call site, so CI can assert on counts without scraping the text table.
std::string stats_json(const perf::AnalysisReport& report, const tracedb::TraceDatabase& db,
                       const tracedb::OpenStats& io) {
  support::json::Writer w;
  w.begin_object();
  w.kv("schema_version", support::json::kSchemaVersion);
  w.key("dropped_events");
  w.value(report.dropped_events);
  w.key("stream_dropped_events");
  w.value(report.stream_dropped);
  w.key("enclaves");
  w.begin_array();
  for (const auto& ov : report.overviews) {
    w.begin_object();
    w.kv("enclave_id", static_cast<std::uint64_t>(ov.enclave_id));
    w.kv("name", ov.name);
    w.kv("ecalls_called", static_cast<std::uint64_t>(ov.ecalls_called));
    w.kv("ocalls_called", static_cast<std::uint64_t>(ov.ocalls_called));
    w.kv("ecall_instances", static_cast<std::uint64_t>(ov.ecall_instances));
    w.kv("ocall_instances", static_cast<std::uint64_t>(ov.ocall_instances));
    w.kv("ecalls_below_10us", ov.ecalls_below_10us);
    w.kv("ocalls_below_10us", ov.ocalls_below_10us);
    w.kv("page_ins", static_cast<std::uint64_t>(ov.page_ins));
    w.kv("page_outs", static_cast<std::uint64_t>(ov.page_outs));
    w.end_object();
  }
  w.end_array();
  w.key("calls");
  w.begin_array();
  for (const auto& s : report.stats) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("type", s.key.type == tracedb::CallType::kEcall ? "ecall" : "ocall");
    w.kv("enclave_id", static_cast<std::uint64_t>(s.key.enclave_id));
    w.kv("call_id", static_cast<std::uint64_t>(s.key.call_id));
    w.kv("count", static_cast<std::uint64_t>(s.duration_ns.count));
    w.kv("mean_ns", s.duration_ns.mean);
    w.kv("median_ns", s.duration_ns.median);
    w.kv("stddev_ns", s.duration_ns.stddev);
    // HDR-quantized percentiles (same bucketing as the trace's latency table).
    w.kv("p50_ns", s.p50_ns);
    w.kv("p90_ns", s.p90_ns);
    w.kv("p99_ns", s.p99_ns);
    w.kv("p999_ns", s.p999_ns);
    w.kv("aex_total", s.aex_total);
    w.end_object();
  }
  w.end_array();
  w.key("findings");
  w.begin_array();
  for (const auto& f : report.findings) {
    w.begin_object();
    w.kv("kind", perf::to_string(f.kind));
    w.kv("subject", f.subject_name);
    w.kv("partner", f.partner ? f.partner_name : "");
    w.kv("severity", f.severity);
    w.kv("detail", f.detail);
    w.key("recommendations");
    w.begin_array();
    for (const auto& r : f.recommendations) {
      w.begin_object();
      w.kv("action", perf::to_string(r.action));
      w.kv("predicted_speedup", r.predicted_speedup);
      w.kv("best_workers", static_cast<std::uint64_t>(r.best_workers));
      w.kv("scenario", r.scenario);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  // Time-series (sgxperf monitor): the windowed run history and the full
  // alert trail, so CI and dashboards can answer "when did this regress".
  w.kv("window_period_ns", static_cast<std::uint64_t>(db.window_period()));
  w.key("windows");
  w.begin_array();
  for (const auto& win : db.windows()) {
    w.begin_object();
    w.kv("index", static_cast<std::uint64_t>(win.window_index));
    w.kv("start_ns", static_cast<std::uint64_t>(win.start_ns));
    w.kv("end_ns", static_cast<std::uint64_t>(win.end_ns));
    w.kv("calls", win.calls);
    w.kv("aexs", win.aexs);
    w.kv("page_ins", win.page_ins);
    w.kv("page_outs", win.page_outs);
    w.kv("stream_dropped", win.stream_dropped);
    w.kv("switchless_calls", win.switchless_calls);
    w.kv("switchless_fallbacks", win.switchless_fallbacks);
    w.kv("switchless_wasted_ns", win.switchless_wasted_ns);
    w.kv("active_alerts", static_cast<std::uint64_t>(win.active_alerts));
    w.end_object();
  }
  w.end_array();
  w.key("window_sites");
  w.begin_array();
  for (const auto& site : db.window_sites()) {
    w.begin_object();
    w.kv("window", static_cast<std::uint64_t>(site.window_index));
    w.kv("name", db.name_of(site.enclave_id, site.type, site.call_id));
    w.kv("enclave_id", static_cast<std::uint64_t>(site.enclave_id));
    w.kv("type", site.type == tracedb::CallType::kEcall ? "ecall" : "ocall");
    w.kv("call_id", static_cast<std::uint64_t>(site.call_id));
    w.kv("calls", site.calls);
    w.kv("aex", site.aex_count);
    w.kv("p50_ns", static_cast<std::uint64_t>(site.p50_ns));
    w.kv("p99_ns", static_cast<std::uint64_t>(site.p99_ns));
    w.end_object();
  }
  w.end_array();
  w.key("alerts");
  w.begin_array();
  for (const auto& a : db.alerts()) {
    w.begin_object();
    w.kv("alert", perf::to_string(a.kind));
    if (a.kind == tracedb::AlertKind::kPaging) {
      w.kv("site",
           support::format("enclave %llu", static_cast<unsigned long long>(a.enclave_id)));
    } else {
      w.kv("site", db.name_of(a.enclave_id, a.type, a.call_id));
    }
    w.kv("enclave_id", static_cast<std::uint64_t>(a.enclave_id));
    w.kv("type", a.type == tracedb::CallType::kEcall ? "ecall" : "ocall");
    w.kv("call_id", static_cast<std::uint64_t>(a.call_id));
    w.kv("onset_ns", static_cast<std::uint64_t>(a.onset_ns));
    w.kv("resolved_ns", static_cast<std::uint64_t>(a.resolved_ns));
    w.kv("active", a.resolved_ns == 0);
    w.kv("window", static_cast<std::uint64_t>(a.window_index));
    w.kv("detail", a.detail);
    w.end_object();
  }
  w.end_array();
  // I/O accounting for this open: flat files read whole; SGXSTORE inputs
  // report how few bytes the summary sections actually cost, which is what
  // makes the store's lazy-loading claim checkable from CI.
  w.key("io");
  w.begin_object();
  w.kv("store", io.store);
  w.kv("total_bytes", io.total_bytes);
  w.kv("bytes_read", io.bytes_read);
  w.key("sections_loaded");
  w.begin_array();
  for (const auto& s : io.sections_loaded) w.value(s);
  w.end_array();
  w.end_object();
  w.end_object();
  return w.take();
}

/// Resolves a call by registered name across both call types, reporting a
/// usable error when the name is unknown.
std::optional<tracedb::CallKey> find_call(const tracedb::TraceDatabase& db,
                                          tracedb::EnclaveId enclave,
                                          const std::string& name) {
  const auto key = tracedb::find_call_by_name(db, enclave, name);
  if (!key) {
    std::fprintf(stderr, "error: no call named '%s' for enclave %llu\n", name.c_str(),
                 static_cast<unsigned long long>(enclave));
  }
  return key;
}

/// Hands --edl's interface to `analyzer`; false after printing the error.
bool load_edl(const Options& opts, perf::Analyzer& analyzer) {
  if (opts.edl_path.empty()) return true;
  try {
    analyzer.set_interface(opts.enclave_id, sgxsim::edl::parse_file(opts.edl_path));
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error parsing EDL: %s\n", e.what());
    return false;
  }
}

std::optional<sgxsim::PatchLevel> parse_profile(const std::string& name) {
  using sgxsim::PatchLevel;
  if (name == "unpatched") return PatchLevel::kUnpatched;
  if (name == "spectre") return PatchLevel::kSpectre;
  if (name == "l1tf" || name == "spectre-l1tf") return PatchLevel::kSpectreL1tf;
  std::fprintf(stderr, "error: unknown cost profile '%s' (unpatched, spectre, l1tf)\n",
               name.c_str());
  return std::nullopt;
}

/// Parses "--workers N" or "--workers A..B" into an inclusive range.
std::optional<std::pair<std::size_t, std::size_t>> parse_workers(const std::string& range) {
  const auto pos = range.find("..");
  const std::string_view text = range;
  const auto lo = parse_number<std::size_t>(text.substr(0, pos));
  const auto hi = pos == std::string::npos ? lo : parse_number<std::size_t>(text.substr(pos + 2));
  if (!lo || !hi || *lo == 0 || *hi < *lo) {
    std::fprintf(stderr, "error: bad --workers '%s' (want N or A..B, 1-based)\n", range.c_str());
    return std::nullopt;
  }
  return std::make_pair(*lo, *hi);
}

/// The what-if flags, resolved once against a trace: the replay settings
/// (--recorded-profile), the --workers range, and one named single-pass
/// scenario per --switchless/--eliminate/--merge/--cost-profile/--epc-mb
/// flag, in that order (switchless at the lowest worker count).  `whatif`
/// runs the passes one by one; `compare --whatif` composes them into one
/// scenario.
struct WhatIf {
  replay::ReplayConfig replay;
  std::size_t min_workers = 1;
  std::size_t max_workers = 1;
  std::vector<replay::Scenario> passes;
};

/// Fills `w` from the flags.  Returns 0, or the exit status after printing
/// the reason: 2 for a malformed flag, 1 for an unknown call site.
int resolve_whatif(const Options& opts, const tracedb::TraceDatabase& db, WhatIf& w) {
  const auto recorded = parse_profile(opts.recorded_profile);
  if (!recorded) return 2;
  const auto workers = parse_workers(opts.workers_range);
  if (!workers) return 2;
  w.replay.recorded_cost = sgxsim::CostModel::preset(*recorded);
  std::tie(w.min_workers, w.max_workers) = *workers;

  const auto pass = [&w](std::string name) -> replay::Scenario& {
    w.passes.emplace_back().name = std::move(name);
    return w.passes.back();
  };
  if (!opts.switchless_site.empty()) {
    const auto key = find_call(db, opts.enclave_id, opts.switchless_site);
    if (!key) return 1;
    pass("switchless " + opts.switchless_site).switchless.push_back({*key, w.min_workers});
  }
  if (!opts.eliminate_site.empty()) {
    const auto key = find_call(db, opts.enclave_id, opts.eliminate_site);
    if (!key) return 1;
    pass("eliminate " + opts.eliminate_site).eliminate.push_back({*key});
  }
  if (!opts.merge_site.empty()) {
    const auto key = find_call(db, opts.enclave_id, opts.merge_site);
    if (!key) return 1;
    pass("merge " + opts.merge_site).merge.push_back({*key, std::nullopt});
  }
  if (!opts.cost_profile.empty()) {
    const auto profile = parse_profile(opts.cost_profile);
    if (!profile) return 2;
    pass("cost-profile " + opts.cost_profile).cost_profile = *profile;
  }
  if (opts.epc_mb > 0) {
    pass(support::format("epc %zu MiB", opts.epc_mb)).epc_pages =
        opts.epc_mb * (1024 * 1024 / sgxsim::kPageSize);
  }
  return 0;
}

/// One analyser recommendation with its replay-predicted speedup, flattened
/// for the `whatif --all-recommendations` ranking.
struct RankedRecommendation {
  std::string finding;
  std::string subject;
  std::string action;
  std::string scenario;
  double predicted_speedup = 1.0;
  std::size_t best_workers = 0;
};

/// `sgxperf whatif`: validate the replay against the recorded trace, then
/// re-cost it under the scenarios requested on the command line and/or rank
/// every analyser recommendation by its predicted speedup.
int run_whatif(const Options& opts, Trace& trace) {
  const tracedb::TraceDatabase& db = trace.db;
  WhatIf whatif;
  if (const int rc = resolve_whatif(opts, db, whatif); rc != 0) return rc;
  const tracedb::TraceIndex index = tracedb::index_trace(db);
  replay::ReplayEngine engine(db, index, whatif.replay);
  const auto validation = engine.validate();

  // A switchless pass sweeps the --workers range; every other pass runs once.
  std::vector<replay::ScenarioResult> results;
  std::string sweep_text;
  for (const auto& pass : whatif.passes) {
    if (pass.switchless.empty()) {
      results.push_back(engine.run(pass));
      continue;
    }
    const auto sweep = engine.sweep_switchless(pass.switchless.front().site, whatif.min_workers,
                                               whatif.max_workers);
    if (!opts.json) sweep_text = replay::render_sweep_text(sweep, whatif.min_workers);
    for (const auto& point : sweep.points) results.push_back(point);
  }

  std::vector<RankedRecommendation> ranked;
  if (opts.all_recommendations) {
    perf::AnalyzerConfig acfg = opts.config;
    acfg.predict_speedups = true;
    acfg.replay_cost = whatif.replay.recorded_cost;
    acfg.switchless_min_workers = whatif.min_workers;
    acfg.switchless_max_workers = whatif.max_workers;
    perf::Analyzer analyzer(db, acfg);
    if (!load_edl(opts, analyzer)) return 1;
    const auto report = analyzer.analyze(index);
    for (const auto& f : report.findings) {
      for (const auto& r : f.recommendations) {
        if (r.scenario.empty()) continue;  // no replay model for this action
        ranked.push_back({perf::to_string(f.kind), f.subject_name, perf::to_string(r.action),
                          r.scenario, r.predicted_speedup, r.best_workers});
      }
    }
    std::stable_sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.predicted_speedup > b.predicted_speedup;
    });
  }

  if (opts.json) {
    support::json::Writer w;
    w.begin_object();
    w.kv("schema_version", support::json::kSchemaVersion);
    replay::write_whatif_json(w, validation, results);
    if (opts.all_recommendations) {
      w.key("ranked");
      w.begin_array();
      for (const auto& r : ranked) {
        w.begin_object();
        w.kv("finding", r.finding);
        w.kv("subject", r.subject);
        w.kv("action", r.action);
        w.kv("scenario", r.scenario);
        w.kv("predicted_speedup", r.predicted_speedup);
        w.kv("best_workers", static_cast<std::uint64_t>(r.best_workers));
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
    std::printf("%s\n", w.take().c_str());
    return 0;
  }

  std::fputs(replay::render_validation(validation).c_str(), stdout);
  if (!sweep_text.empty()) {
    std::fputs("\n", stdout);
    std::fputs(sweep_text.c_str(), stdout);
  }
  if (!results.empty()) {
    std::fputs("\n", stdout);
    std::fputs(replay::render_whatif_text(results).c_str(), stdout);
  }
  if (opts.all_recommendations) {
    std::printf("\nranked recommendations (%zu with a replay model, best first):\n",
                ranked.size());
    for (const auto& r : ranked) {
      std::printf("  %6.2fx  %s — %s (%s)", r.predicted_speedup, r.action.c_str(),
                  r.subject.c_str(), r.finding.c_str());
      if (r.best_workers > 0) std::printf(" [%zu worker(s)]", r.best_workers);
      std::printf("\n");
    }
  }
  return 0;
}

/// Prints the store at `dir`: its section table as JSON with --json
/// (path-free, so the output is byte-stable for golden gates), else
/// `headline` (if any) and the table as text.
void show_store(const Options& opts, const std::string& dir, const std::string& headline = {}) {
  tracedb::store::StoreReader reader(dir);
  const auto info = reader.info();
  if (opts.json) {
    support::json::Writer w;
    w.begin_object();
    w.kv("schema_version", support::json::kSchemaVersion);
    w.kv("generation", info.generation);
    w.kv("payload_version", static_cast<std::uint64_t>(info.payload_version));
    w.kv("total_bytes", info.total_bytes);
    w.kv("event_chunks", info.event_chunks);
    w.key("sections");
    w.begin_array();
    for (const auto& s : info.sections) {
      w.begin_object();
      w.kv("name", s.name);
      w.kv("file", s.file);
      w.kv("length", s.length);
      w.kv("crc32", static_cast<std::uint64_t>(s.crc));
      w.key("row_counts");
      w.begin_array();
      for (const std::uint64_t c : s.counts) w.value(c);
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::printf("%s\n", w.take().c_str());
    return;
  }
  if (!headline.empty()) std::printf("%s\n", headline.c_str());
  std::printf("store %s: generation %llu, payload v%u, %llu bytes, %llu event chunks\n",
              dir.c_str(), static_cast<unsigned long long>(info.generation),
              static_cast<unsigned>(info.payload_version),
              static_cast<unsigned long long>(info.total_bytes),
              static_cast<unsigned long long>(info.event_chunks));
  for (const auto& s : info.sections) {
    std::string counts;
    for (const std::uint64_t c : s.counts) {
      if (!counts.empty()) counts += ", ";
      counts += std::to_string(c);
    }
    std::printf("  %-8s %-16s %10llu bytes  crc32 %08x  rows [%s]\n", s.name.c_str(),
                s.file.c_str(), static_cast<unsigned long long>(s.length), s.crc,
                counts.c_str());
  }
}

/// `sgxperf store pack`: split a flat trace into an SGXSTORE directory.
int run_store_pack(const Options& opts, Trace&) {
  const auto& a = opts.args;
  tracedb::store::pack(tracedb::open_trace(a[0]), a[1]);
  show_store(opts, a[1], "packed " + a[0] + " -> " + a[1]);
  return 0;
}

/// `sgxperf store unpack`: write a store back out as one flat trace.
int run_store_unpack(const Options& opts, Trace&) {
  const auto& a = opts.args;
  const tracedb::TraceDatabase db = tracedb::store::unpack(a[0]);
  db.save(a[1]);
  std::printf("unpacked %s -> %s (%zu calls, %zu latency rows, %zu alerts)\n", a[0].c_str(),
              a[1].c_str(), db.calls().size(), db.latencies().size(), db.alerts().size());
  return 0;
}

/// `sgxperf store compact`: fold stores and flat traces into one --out store.
int run_store_compact(const Options& opts, Trace&) {
  const auto& a = opts.args;
  if (opts.out_path.empty()) {
    std::fputs("error: store compact needs --out <dir.store>\n", stderr);
    return 2;
  }
  tracedb::store::compact(a, opts.out_path);
  show_store(opts, opts.out_path,
             support::format("compacted %zu input%s into %s", a.size(), a.size() == 1 ? "" : "s",
                             opts.out_path.c_str()));
  return 0;
}

/// `sgxperf doctor`: the event-conservation audit (DESIGN.md §13) as a CLI
/// verb.  Builds a ledger from one of four sources and verifies
/// produced == delivered + Σdrops stage-by-stage:
///
///   doctor <trace.bin>          stages rebuilt from persisted loss counters
///   doctor <dir.store>          index totals cross-checked against the chunk
///                               directory — a genuine on-disk audit
///   doctor --workload W ...     live run through logger + MonitorSession
///   doctor --query-socket PATH  fetch `status` from a serve daemon and
///                               re-audit its ledger client-side
///
/// Exit codes: 0 = conserved and attributed loss <= --max-loss; 1 =
/// conservation violated (a stage leaks or reports indeterminate loss);
/// 2 = usage/IO error; 3 = conserved but attributed loss exceeds --max-loss.
int run_doctor(const Options& opts, Trace&) {
  const std::size_t sources = opts.args.size() + opts.given.count("--workload") +
                              opts.given.count("--query-socket");
  if (sources > 1) {
    std::fputs("error: doctor audits one source: a trace or store, --workload or "
               "--query-socket\n",
               stderr);
    return 2;
  }
  telemetry::Ledger led;
  std::string mode;
  try {
    if (!opts.query_socket_path.empty()) {
      mode = "daemon";
      const std::string response = fleet::query_server(opts.query_socket_path, "status");
      const support::json::Value doc = support::json::parse(response);
      const support::json::Value* ledger = doc.find("ledger");
      if (ledger == nullptr) {
        std::fputs("error: status response carries no ledger\n", stderr);
        return 2;
      }
      led = telemetry::ledger_from_json(*ledger);
    } else if (!opts.args.empty()) {
      const std::string& path = opts.args[0];
      struct stat st{};
      if (::stat(path.c_str(), &st) != 0) {
        std::fprintf(stderr, "error: cannot stat %s: %s\n", path.c_str(), std::strerror(errno));
        return 2;
      }
      if (S_ISDIR(st.st_mode)) {
        mode = "store";
        led = telemetry::ledger_from_store(path);
      } else {
        mode = "trace";
        const tracedb::TraceDatabase db = tracedb::open_trace(path);
        led = telemetry::ledger_from_database(db);
      }
    } else {
      mode = "live";
      if (!check_workload(opts)) return 2;
      sgxsim::Urts urts;
      tracedb::TraceDatabase db;
      perf::Logger logger(db);
      logger.attach(urts);
      perf::MonitorSession session(logger, urts, live_session_config(opts, "doctor"));
      if (!session.ok()) {
        std::fputs("error: no free streaming subscriber slot\n", stderr);
        return 2;
      }
      run_live(urts, logger, session, opts);
      led = session.ledger();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  const telemetry::LedgerAudit audit = led.audit();
  int rc = 0;
  if (!audit.ok) {
    rc = 1;
  } else if (audit.total_dropped > opts.max_loss) {
    rc = 3;
  }
  if (opts.json) {
    support::json::Writer w;
    w.begin_object();
    w.kv("schema_version", support::json::kSchemaVersion);
    w.kv("mode", mode);
    w.kv("max_loss", opts.max_loss);
    w.key("ledger");
    led.write_json(w);
    w.kv("conservation_ok", audit.ok);
    w.kv("attributed_dropped", audit.total_dropped);
    w.kv("verdict",
         rc == 0 ? "ok" : (rc == 1 ? "conservation_failed" : "loss_over_budget"));
    w.kv("exit_code", static_cast<std::uint64_t>(rc));
    w.end_object();
    std::printf("%s\n", w.take().c_str());
  } else {
    std::fputs(led.render_table().c_str(), stdout);
    if (rc == 1) {
      std::printf("doctor: FAIL — conservation violated at stage %s\n",
                  audit.first_leak_stage.c_str());
    } else if (rc == 3) {
      std::printf("doctor: FAIL — %llu attributed drop(s) exceed --max-loss %llu\n",
                  static_cast<unsigned long long>(audit.total_dropped),
                  static_cast<unsigned long long>(opts.max_loss));
    } else {
      std::printf("doctor: ok — %llu attributed drop(s) within budget %llu\n",
                  static_cast<unsigned long long>(audit.total_dropped),
                  static_cast<unsigned long long>(opts.max_loss));
    }
  }
  return rc;
}

/// `sgxperf report` and `sgxperf stats` (`findings` false): the analyser's
/// report as text, or as one JSON document with --json.
int run_analysis(const Options& opts, Trace& trace, bool findings) {
  perf::Analyzer analyzer(trace.db, opts.config);
  if (!load_edl(opts, analyzer)) return 1;
  auto report = analyzer.analyze();
  if (opts.json) {
    // JSON stats keep the findings (with predicted speedups) for CI.
    std::printf("%s\n", stats_json(report, trace.db, trace.io).c_str());
    return 0;
  }
  // The text stats table drops the findings — that is what `report` is for.
  if (!findings) report.findings.clear();
  return to_stdout(perf::render_text(report));
}

/// `sgxperf hist` and `sgxperf scatter` (`histogram` false): the durations
/// of the --call site.
int run_plot(const Options& opts, Trace& trace, bool histogram) {
  if (opts.call_name.empty()) {
    std::fputs("error: --call NAME required\n", stderr);
    return 2;
  }
  const auto key = find_call(trace.db, opts.enclave_id, opts.call_name);
  if (!key) return 1;
  if (!histogram) return to_stdout(perf::scatter_csv(trace.db, *key));
  if (opts.bins == 0) {
    std::fputs("error: --bins must be > 0\n", stderr);
    return 2;
  }
  const auto hist = perf::duration_histogram(trace.db, *key, opts.bins);
  return to_stdout(hist.render_ascii(60, "us") + hist.to_csv());
}

/// `sgxperf compare`: diff the trace against an after-trace, or against a
/// replayed --whatif scenario (same table, no second measurement run).
int run_compare(const Options& opts, Trace& trace) {
  const tracedb::TraceDatabase& db = trace.db;
  if (!opts.whatif) {
    if (opts.args.size() == 1) {
      std::fputs("error: compare needs an after-trace or --whatif scenario flags\n", stderr);
      return 2;
    }
    const auto after = tracedb::open_trace(opts.args[1]);
    return to_stdout(perf::render_comparison(perf::compare_traces(db, after)));
  }
  if (opts.args.size() == 2) {
    std::fputs("error: compare takes an after-trace or --whatif, not both\n", stderr);
    return 2;
  }
  WhatIf whatif;
  if (const int rc = resolve_whatif(opts, db, whatif); rc != 0) return rc;
  if (whatif.passes.empty()) {
    std::fputs("error: compare --whatif needs at least one scenario flag "
               "(--switchless/--eliminate/--merge/--cost-profile/--epc-mb)\n",
               stderr);
    return 2;
  }
  replay::Scenario scenario;
  scenario.name = "whatif";
  for (const auto& pass : whatif.passes) {
    scenario.switchless.insert(scenario.switchless.end(), pass.switchless.begin(),
                               pass.switchless.end());
    scenario.eliminate.insert(scenario.eliminate.end(), pass.eliminate.begin(),
                              pass.eliminate.end());
    scenario.merge.insert(scenario.merge.end(), pass.merge.begin(), pass.merge.end());
    if (pass.cost_profile) scenario.cost_profile = pass.cost_profile;
    if (pass.epc_pages) scenario.epc_pages = pass.epc_pages;
  }
  const tracedb::TraceIndex index = tracedb::index_trace(db);
  replay::ReplayEngine engine(db, index, whatif.replay);
  const auto after = engine.materialize(scenario);
  return to_stdout(perf::render_comparison(perf::compare_traces(db, after)));
}

/// `sgxperf export`: the trace as Chrome/Perfetto trace-event JSON.
int run_export(const Options& opts, Trace& trace) {
  const tracedb::TraceDatabase& db = trace.db;
  if (opts.chrome_path.empty()) {
    std::fputs("error: export requires --chrome FILE\n", stderr);
    return 2;
  }
  const std::string json = telemetry::export_chrome_trace(db);
  if (!write_file(opts.chrome_path, json)) return 1;
  std::printf("wrote %zu trace events (%zu bytes) to %s — load in chrome://tracing or ui.perfetto.dev\n",
              db.calls().size() + db.aexs().size() + db.paging().size() +
                  db.metric_samples().size(),
              json.size(), opts.chrome_path.c_str());
  return 0;
}

/// One verb: its positionals (`<x>` required, `[<x>]` optional, `<x>...`
/// one or more), what it does, the store sections of its first positional
/// it opens (0: it opens no trace), the flags it takes and its handler.
struct Verb {
  std::string_view name;  // "report", or "order check" for a subcommand
  std::string_view args;
  std::string_view help;
  unsigned sections;
  std::string flags;  // space-separated
  int (*run)(const Options&, Trace&);
};

// Flag groups several verbs share.
const std::string kWeights =
    "--eq1-alpha --eq1-beta --eq1-gamma --eq2-gamma --eq3-epsilon --eq3-lambda --transition-ns";
const std::string kScenario =
    "--switchless --workers --eliminate --merge --cost-profile --epc-mb --recorded-profile "
    "--enclave";
const std::string kLive = "--workload --threads --calls --interval-ms";
const std::string kFleet = "--query-socket --corpus --retention --out";

// Summary consumers declare the sections they need, so an SGXSTORE input maps
// only meta+profile(+alerts) and never faults in the event log; the
// event-reading visualisers skip the profile tables instead.  Flat files
// always load whole — the flat format has no addressable sections.
constexpr unsigned kAll = tracedb::store::kAllSections;
constexpr unsigned kSummary = tracedb::store::kSummarySections;
constexpr unsigned kEvents = tracedb::store::kSectionMeta | tracedb::store::kSectionEvents;
constexpr unsigned kProfile = tracedb::store::kSectionMeta | tracedb::store::kSectionProfile;

const std::vector<Verb> kVerbs = {
    {"report", "<trace.bin>", "full analysis report (findings + recommendations)", kAll,
     "--edl --enclave --json " + kWeights,
     [](const Options& o, Trace& t) { return run_analysis(o, t, true); }},
    {"stats", "<trace.bin>", "general statistics only", kSummary,
     "--edl --enclave --json " + kWeights,
     [](const Options& o, Trace& t) { return run_analysis(o, t, false); }},
    {"graph", "<trace.bin>", "Graphviz DOT call graph (Figure 5 style) to stdout", kEvents, "",
     [](const Options&, Trace& t) { return to_stdout(perf::render_callgraph_dot(t.db)); }},
    {"hist", "<trace.bin>", "ASCII+CSV duration histogram of --call", kEvents,
     "--call --enclave --bins", [](const Options& o, Trace& t) { return run_plot(o, t, true); }},
    {"scatter", "<trace.bin>", "duration-over-time CSV of --call", kEvents, "--call --enclave",
     [](const Options& o, Trace& t) { return run_plot(o, t, false); }},
    {"csv", "<trace.bin> <directory>", "export all tables as CSV", kAll, "",
     [](const Options& o, Trace& t) {
       t.db.export_csv(o.args[1]);
       std::printf("exported %zu calls, %zu AEXs, %zu paging events to %s\n",
                   t.db.calls().size(), t.db.aexs().size(), t.db.paging().size(),
                   o.args[1].c_str());
       return 0;
     }},
    {"compare", "<before.bin> [<after.bin>]",
     "diff two traces, or one against a replayed --whatif scenario", kAll, "--whatif " + kScenario,
     run_compare},
    {"timeline", "<trace.bin>", "per-thread enclave activity", kEvents, "",
     [](const Options&, Trace& t) { return to_stdout(perf::render_timeline(t.db)); }},
    // --prom also exports the event-count ledger, so main() then opens all sections.
    {"metrics", "<trace.bin>", "telemetry metric series recorded in the trace", kProfile, "--prom",
     [](const Options& o, Trace& t) {
       return to_stdout(o.prom ? telemetry::render_prometheus(t.db)
                               : telemetry::render_metrics_summary(t.db));
     }},
    {"export", "<trace.bin>", "write Chrome/Perfetto trace-event JSON to --chrome FILE", kAll,
     "--chrome", run_export},
    {"flamegraph", "<trace.bin>", "collapsed call stacks for flamegraph.pl", kEvents, "--tree",
     [](const Options& o, Trace& t) {
       const perf::CallTree tree(t.db);
       return to_stdout(o.tree ? tree.render_text() : tree.collapsed());
     }},
    {"whatif", "<trace.bin>",
     "predict speedups by replaying the trace under the scenario flags (none: validate only)",
     kAll, "--all-recommendations --edl --json " + kScenario + " " + kWeights, run_whatif},
    {"record", "<out.bin>", "record the demo workload", 0, "--threads --calls --sample-ns --json",
     run_record},
    {"top", "", "live dashboard over a running workload", 0, kLive + " --frames --window",
     run_top},
    {"monitor", "", "online detection over a running workload; alerts stream to stderr", 0,
     kLive + " --window --alert-log --out --json --fleet --fleet-host --order-model " + kWeights,
     run_monitor},
    {"stress", "", "run a labeled stressor; exits 1 if the run violates its labels", 0,
     "--stressor --threads --duration --intensity --seed --epc-mb --window --out --json "
     "--order-model " + kWeights,
     run_stress},
    {"serve", "", "fleet aggregation daemon: ingest monitor streams, answer queries", 0,
     "--socket --query-socket --retention --checkpoint --checkpoint-every --idle-exit-ms "
     "--prom-out --self-stat-ms --json",
     run_serve},
    {"fleet", "", "same as fleet snapshot", 0, kFleet,
     [](const Options& o, Trace&) { return run_fleet(o, "snapshot"); }},
    {"fleet snapshot", "", "the merged fleet state of a serve daemon or the --corpus", 0, kFleet,
     [](const Options& o, Trace&) { return run_fleet(o, "snapshot"); }},
    {"fleet top", "", "the top --n sites ranked --by a metric", 0, kFleet + " --by --n",
     [](const Options& o, Trace&) {
       return run_fleet(o, support::format("top %s %zu", o.rank_by.c_str(), o.top_n));
     }},
    {"fleet alerts", "", "every fleet alert", 0, kFleet,
     [](const Options& o, Trace&) { return run_fleet(o, "alerts"); }},
    {"fleet series", "<host> <enclave> <site>", "one site's window series", 0, kFleet,
     [](const Options& o, Trace&) {
       return run_fleet(o, "series " + o.args[0] + " " + o.args[1] + " " + o.args[2]);
     }},
    // Over --query-socket the server intercepts `status` and attaches its
    // daemon self-telemetry block; with --corpus it is the aggregator-only view.
    {"fleet status", "", "producer lag + conservation ledger (+ daemon self-telemetry)", 0, kFleet,
     [](const Options& o, Trace&) { return run_fleet(o, "status"); }},
    {"doctor", "[<trace.bin|dir.store>]",
     "audit event conservation of a trace, a store, a live --workload run or a serve daemon; "
     "exits 0 ok, 1 leak, 2 usage or IO error, 3 loss over --max-loss",
     0, kLive + " --query-socket --max-loss --json", run_doctor},
    {"store pack", "<trace.bin> <dir.store>", "split a flat trace into an SGXSTORE directory", 0,
     "--json", run_store_pack},
    {"store unpack", "<dir.store> <out.bin>", "back to a flat v6 file", 0, "", run_store_unpack},
    {"store info", "<dir.store>", "section table + row counts", 0, "--json",
     [](const Options& o, Trace&) {
       show_store(o, o.args[0]);
       return 0;
     }},
    {"store compact", "<in>...", "fold stores and traces into one --out store", 0, "--out --json",
     run_store_compact},
    {"order learn", "<trace.bin>", "learn an interface-orderliness model from a baseline trace",
     kAll, "--out --embed --json", run_order_learn},
    // `order check` reads the embedded rule table (meta) and replays the call
    // sequence (events); it has no use for histograms or windows.
    {"order check", "<trace.bin>",
     "check a trace against --model or its embedded rules; exits 1 on violations", kEvents,
     "--model --json", run_order_check},
};

/// The fewest and most positionals `verb` takes.
std::pair<std::size_t, std::size_t> arity(const Verb& verb) {
  std::size_t min = 0;
  std::size_t max = 0;
  for (const auto arg : words(verb.args)) {
    if (arg.ends_with("...")) {
      max = SIZE_MAX;
    } else {
      ++max;
    }
    if (!arg.starts_with('[')) ++min;
  }
  return {min, max};
}

/// Prints `text` to stderr, indented by 6 and wrapped at 79 columns.
void print_wrapped(std::string_view text) {
  std::size_t col = 0;
  for (const auto word : words(text)) {
    if (col > 0 && col + 1 + word.size() > 79) {
      std::fputc('\n', stderr);
      col = 0;
    }
    std::fputs(col == 0 ? "      " : " ", stderr);
    std::fwrite(word.data(), 1, word.size(), stderr);
    col += (col == 0 ? 6 : 1) + word.size();
  }
  if (col > 0) std::fputc('\n', stderr);
}

/// A verb's usage: `lead`, its synopsis, what it does and the flags it takes.
void print_verb(const Verb& verb, std::string lead) {
  lead.append(verb.name);
  if (!verb.args.empty()) lead.append(" ").append(verb.args);
  lead += '\n';
  std::fputs(lead.c_str(), stderr);
  print_wrapped(verb.help);
  print_wrapped(verb.flags);
}

void usage() {
  std::fputs("usage: sgxperf <command> [arguments] [options]\n"
             "Each command takes only the options listed under it.  A command that\n"
             "reads a trace also accepts an SGXSTORE directory and loads only the\n"
             "sections it needs.\n"
             "commands:\n",
             stderr);
  for (const Verb& verb : kVerbs) print_verb(verb, "  ");
  std::fputs("options:\n", stderr);
  Options unused;
  for (const Flag& flag : flag_table(unused)) {
    const std::string head = std::string(flag.name) + " " + std::string(flag.value);
    std::fprintf(stderr, "  %-22s %.*s\n", head.c_str(), static_cast<int>(flag.help.size()),
                 flag.help.data());
  }
}

/// Finds the verb's row and binds its positionals and flags into `opts`.
/// Returns the row, or nullptr after printing why (the caller exits 2).
const Verb* parse_args(int argc, char** argv, Options& opts) {
  if (argc < 2) {
    usage();
    return nullptr;
  }
  // A verb with subcommands ("order check") is named by its first two words.
  std::string name = argv[1];
  int i = 2;
  const bool has_subcommands = std::any_of(kVerbs.begin(), kVerbs.end(), [&](const Verb& v) {
    return v.name.starts_with(name + " ");
  });
  if (has_subcommands && argc > 2 && argv[2][0] != '-') {
    name = name + " " + argv[2];
    i = 3;
  }
  const auto verb = std::find_if(kVerbs.begin(), kVerbs.end(),
                                 [&](const Verb& v) { return v.name == name; });
  if (verb == kVerbs.end()) {
    std::fprintf(stderr, "error: unknown command '%s'\n", name.c_str());
    usage();
    return nullptr;
  }
  const auto reject = [&](const std::string& why) {
    std::fprintf(stderr, "error: %s\n", why.c_str());
    print_verb(*verb, "usage: sgxperf ");
    return nullptr;
  };

  const std::vector<Flag> flags = flag_table(opts);
  const std::vector<std::string_view> taken = words(verb->flags);
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!arg.starts_with('-')) {
      opts.args.push_back(arg);
      continue;
    }
    const auto flag = std::find_if(flags.begin(), flags.end(),
                                   [&](const Flag& f) { return f.name == arg; });
    if (flag == flags.end() || std::find(taken.begin(), taken.end(), arg) == taken.end()) {
      return reject(name + " does not take " + arg);
    }
    const char* value = "";
    if (!flag->value.empty()) {
      if (i + 1 >= argc) return reject("missing value for " + arg);
      value = argv[++i];
    }
    if (!flag->set(value)) {
      std::fprintf(stderr, "error: bad value '%s' for %s (want %s)\n", value, arg.c_str(),
                   std::string(flag->want).c_str());
      return nullptr;
    }
    opts.given.insert(flag->name);
  }
  const auto [min, max] = arity(*verb);
  if (opts.args.size() < min) return reject(name + " needs " + std::string(verb->args));
  if (opts.args.size() > max) return reject("unexpected argument '" + opts.args[max] + "'");
  return &*verb;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  const Verb* verb = parse_args(argc, argv, opts);
  if (verb == nullptr) return 2;
  // A verb's own errors return 1 or 2; whatever else goes wrong (a trace that
  // does not open, a failed write, an unreachable daemon) exits 1.
  try {
    Trace trace = verb->sections == 0
                      ? Trace()
                      : Trace(opts.args[0], opts.prom ? kAll : verb->sections);
    return verb->run(opts, trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
