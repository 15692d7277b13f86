// postmortem: a developer analysing finished traces.
//
// Set-up records a pool of `mixed` traces whose sizes are spaced evenly on
// a log scale from ~10k calls to past the store-open cliff, and saves each
// both as a flat v6 file and as an SGXSTORE directory.  One op is one fixed
// analysis session on one trace: `stats` on the store (summary sections),
// `report` on the flat file (open_trace + Analyzer with predictions on), a
// flamegraph on the store (meta + events, then the call tree) and four
// seeded range zooms.  A run visits the pool in whole cycles, each in a
// fresh seeded order, so every run samples every trace size equally often.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "perf/analyzer.hpp"
#include "perf/calltree.hpp"
#include "perf/logger.hpp"
#include "stress/stressor.hpp"
#include "support/rng.hpp"
#include "tracedb/open.hpp"
#include "tracedb/store/store.hpp"

namespace wallbench {

namespace {

namespace store = tracedb::store;

/// Storm bursts per storm ecall scale with this.  At 8 the calls outnumber
/// the EPC-sweep paging events, so a trace's size is set by its calls, the
/// unit the store cliff is measured in.
constexpr std::size_t kIntensity = 8;
/// Calls one 4-step `mixed` cycle records: the storm ecall with its
/// 2 + 12 * intensity ocalls, quick, sync with its 2 sync ocalls, tail and
/// sweep (stress/stressor.cpp).
constexpr std::size_t kCallsPerCycle = 9 + 12 * kIntensity;
/// Reference zoom windows per trace.  Many distinct windows keep the median
/// zoom from depending on where the seed happened to put a few of them
/// against the store's chunk boundaries.
constexpr std::size_t kZooms = 16;
/// Zooms per op.  Four, not one or two: every zoom is a query sample, and
/// the zoom latencies of a run are spread over trace sizes and widths.
constexpr std::size_t kZoomsPerOp = 4;

struct Zoom {
  tracedb::Nanoseconds from = 0;
  tracedb::Nanoseconds to = 0;
  std::size_t calls = 0;  // reference result
};

struct Trace {
  std::size_t calls = 0;
  std::string flat;
  std::string store;
  std::string findings;  // reference fingerprints
  std::string stats;
  std::string flame;
  std::vector<Zoom> zooms;
};

perf::AnalyzerConfig analyzer_config(bool predict) {
  perf::AnalyzerConfig c;
  c.predict_speedups = predict;
  c.replay_threads = g_worker_threads;
  return c;
}

/// Everything `report` prints about findings, predictions included.
std::string findings_fingerprint(const perf::AnalysisReport& r) {
  std::string out;
  char buf[160];
  for (const auto& f : r.findings) {
    std::snprintf(buf, sizeof buf, "%s|%llu:%d:%u|%s|%.9g|", perf::to_string(f.kind),
                  static_cast<unsigned long long>(f.subject.enclave_id),
                  static_cast<int>(f.subject.type), f.subject.call_id, f.partner_name.c_str(),
                  f.severity);
    out += buf;
    out += f.detail;
    for (const auto& rec : f.recommendations) {
      std::snprintf(buf, sizeof buf, "|%s:%.9g:%zu:", perf::to_string(rec.action),
                    rec.predicted_speedup, rec.best_workers);
      out += buf;
      out += rec.scenario;
    }
    out += '\n';
  }
  return out;
}

/// The per-site statistics both the flat and the summary-only store path
/// produce: call counts and HDR percentiles.
std::string stats_fingerprint(const perf::AnalysisReport& r) {
  std::string out;
  char buf[200];
  for (const auto& s : r.stats) {
    std::snprintf(buf, sizeof buf, "%s|%zu|%llu|%llu|%llu|%llu\n", s.name.c_str(),
                  s.duration_ns.count, static_cast<unsigned long long>(s.p50_ns),
                  static_cast<unsigned long long>(s.p90_ns),
                  static_cast<unsigned long long>(s.p99_ns),
                  static_cast<unsigned long long>(s.p999_ns));
    out += buf;
  }
  return out;
}

std::size_t zoom_calls(const std::string& dir, const Zoom& z, std::uint64_t* bytes_read) {
  store::StoreReader reader(dir);
  auto db = reader.load(store::kSectionMeta);
  reader.load_events_overlapping(db, z.from, z.to);
  if (bytes_read != nullptr) *bytes_read += reader.io().bytes_read;
  return db.calls().size();
}

/// Records one pool trace of about `target_calls` calls and its references.
Trace record_trace(std::size_t target_calls, std::uint64_t seed, const std::string& path) {
  sgxsim::Urts urts;
  auto stressor = stress::make_stressor("mixed");
  stress::StressConfig config;
  config.threads = 1;
  config.intensity = kIntensity;
  config.seed = seed;
  stressor->prepare(urts, config);
  tracedb::TraceDatabase db;
  perf::LoggerConfig lc;
  lc.merge_threads = g_worker_threads;
  perf::Logger logger(db, lc);
  logger.attach(urts);
  const std::size_t cycles = (target_calls + kCallsPerCycle - 1) / kCallsPerCycle;
  std::uint64_t step = 0;
  for (std::size_t c = 0; c < cycles; ++c) {
    for (int k = 0; k < 4; ++k) stressor->step(urts, 0, step++);
  }
  logger.detach();

  Trace t;
  t.calls = db.calls().size();
  t.flat = path + ".bin";
  t.store = path + ".store";
  tracedb::save_trace(db, t.flat);
  tracedb::save_trace(db, t.store);
  t.findings = findings_fingerprint(perf::Analyzer(db, analyzer_config(true)).analyze());
  t.stats = stats_fingerprint(perf::Analyzer(db, analyzer_config(false)).analyze());
  t.flame = perf::CallTree(db).collapsed();

  // Zoom windows of fixed widths (1-4% of the trace's span, evenly spread)
  // at seeded positions: the seed moves the windows, not the amount of work.
  tracedb::Nanoseconds lo = ~tracedb::Nanoseconds{0};
  tracedb::Nanoseconds hi = 0;
  for (const auto& c : db.calls()) {
    lo = std::min(lo, c.start_ns);
    hi = std::max(hi, c.end_ns);
  }
  support::Rng rng(seed ^ 0x5A17ull);
  const double span = static_cast<double>(hi - lo);
  for (std::size_t i = 0; i < kZooms; ++i) {
    const double width = span * (0.01 + 0.03 * static_cast<double>(i) / (kZooms - 1));
    const double start = static_cast<double>(lo) + (span - width) * rng.next_double();
    Zoom z;
    z.from = static_cast<tracedb::Nanoseconds>(start);
    z.to = static_cast<tracedb::Nanoseconds>(start + width);
    z.calls = zoom_calls(t.store, z, nullptr);
    // Chunk-granular: a zoom returns at least every call starting inside it.
    std::size_t inside = 0;
    for (const auto& c : db.calls()) inside += (c.start_ns >= z.from && c.start_ns <= z.to) ? 1 : 0;
    if (z.calls < inside) throw std::runtime_error("postmortem: zoom lost calls at set-up");
    t.zooms.push_back(z);
  }
  return t;
}

struct Names {
  SpanRecorder::NameId op, summary_open, stats, flat_load, analyze, analyze_predict, events_open,
      calltree, range_load;

  explicit Names(SpanRecorder& r)
      : op(r.name("bench.op")),
        summary_open(r.name("tracedb.store.summary_open")),
        stats(r.name("perf.analyzer.stats")),
        flat_load(r.name("tracedb.serialize.load")),
        analyze(r.name("perf.analyzer.analyze")),
        analyze_predict(r.name("perf.analyzer.analyze_predict")),
        events_open(r.name("tracedb.store.events_open")),
        calltree(r.name("perf.calltree.build")),
        range_load(r.name("tracedb.store.range_load")) {}
};

struct Phase {
  std::vector<double> op_ms;
  std::vector<double> query_ms;
  std::uint64_t ops = 0;
  std::uint64_t calls = 0;
  std::uint64_t bytes_read = 0;
  double wall_s = 0.0;
  double probe_ms = 0.0;  // traced-only extra work inside ops
  std::vector<double> events_open_ns_per_call;  // per op, by pool index
  std::vector<std::size_t> op_trace;
};

/// One analysis session on `t`; returns false when an output differs from
/// the reference.  Traced, it adds a predictions-off analysis (the probe)
/// so the prediction cost can be split out.
bool analysis_op(const Trace& t, std::size_t zoom_base, SpanRecorder* rec, const Names* n,
                 Phase& ph, std::vector<std::string>& why) {
  const auto id = [&](SpanRecorder::NameId Names::*f) { return n != nullptr ? n->*f : 0; };
  const std::uint64_t op = ph.ops;
  bool ok = true;
  SpanScope root(rec, id(&Names::op), op);

  // `sgxperf stats` on the store: summary sections only.
  std::string store_stats;
  {
    tracedb::OpenStats io;
    tracedb::TraceDatabase db = [&] {
      SpanScope s(rec, id(&Names::summary_open), op);
      return tracedb::open_trace(t.store, store::kSummarySections, &io);
    }();
    ph.bytes_read += io.bytes_read;
    SpanScope s(rec, id(&Names::stats), op);
    store_stats = stats_fingerprint(perf::Analyzer(db, analyzer_config(false)).analyze());
  }
  // `sgxperf report` on the flat file.
  {
    tracedb::TraceDatabase db = [&] {
      SpanScope s(rec, id(&Names::flat_load), op);
      return tracedb::open_trace(t.flat);
    }();
    if (rec != nullptr) {
      const auto p0 = Clock::now();
      {
        SpanScope s(rec, id(&Names::analyze), op);
        (void)perf::Analyzer(db, analyzer_config(false)).analyze();
      }
      ph.probe_ms += seconds_since(p0) * 1e3;
    }
    perf::AnalysisReport report;
    {
      SpanScope s(rec, id(&Names::analyze_predict), op);
      report = perf::Analyzer(db, analyzer_config(true)).analyze();
    }
    if (findings_fingerprint(report) != t.findings) {
      ok = false;
      why.push_back("postmortem: flat-file findings differ from the set-up reference");
    }
    if (stats_fingerprint(report) != t.stats || store_stats != t.stats) {
      ok = false;
      why.push_back("postmortem: statistics differ between the flat file and the store");
    }
  }
  // `sgxperf flamegraph` on the store: meta + events.
  {
    tracedb::OpenStats io;
    const auto e0 = Clock::now();
    tracedb::TraceDatabase db = [&] {
      SpanScope s(rec, id(&Names::events_open), op);
      return tracedb::open_trace(t.store, store::kSectionMeta | store::kSectionEvents, &io);
    }();
    ph.events_open_ns_per_call.push_back(static_cast<double>(ns_between(e0, Clock::now())) /
                                         static_cast<double>(t.calls));
    ph.bytes_read += io.bytes_read;
    SpanScope s(rec, id(&Names::calltree), op);
    if (perf::CallTree(db).collapsed() != t.flame) {
      ok = false;
      why.push_back("postmortem: store flamegraph differs from the set-up reference");
    }
  }
  // Zooms into the store's event log.
  for (std::size_t j = 0; j < kZoomsPerOp; ++j) {
    const Zoom& z = t.zooms[(zoom_base + j) % t.zooms.size()];
    const auto q0 = Clock::now();
    std::size_t got = 0;
    {
      SpanScope s(rec, id(&Names::range_load), op);
      got = zoom_calls(t.store, z, &ph.bytes_read);
    }
    ph.query_ms.push_back(static_cast<double>(ns_between(q0, Clock::now())) / 1e6);
    if (got != z.calls) {
      ok = false;
      why.push_back("postmortem: zoom result differs from the set-up reference");
    }
  }
  ph.calls += t.calls;
  ++ph.ops;
  return ok;
}

}  // namespace

RunResult run_postmortem(const RunOptions& opt) {
  RunResult out;
  // Sizes evenly spaced in log(calls).  The largest is past the store-open
  // cliff: opening its event log costs several times more per call than
  // loading the flat file.
  const std::size_t pool_size = opt.tiny ? 3 : 11;
  const double min_calls = opt.tiny ? 2'000 : 10'000;
  const double max_calls = opt.tiny ? 8'000 : 400'000;
  std::vector<Trace> pool;

  const double setup_s = timed_setups(3, [&] {
    pool.clear();
    for (std::size_t i = 0; i < pool_size; ++i) {
      const double f = static_cast<double>(i) / static_cast<double>(pool_size - 1);
      const auto target =
          static_cast<std::size_t>(min_calls * std::pow(max_calls / min_calls, f));
      pool.push_back(record_trace(target, opt.seed * 1000 + i,
                                  opt.work_dir + "/pool" + std::to_string(i)));
    }
    // Warm-up: one op on the smallest trace.
    Phase warm;
    std::vector<std::string> why;
    if (!analysis_op(pool.front(), 0, nullptr, nullptr, warm, why)) {
      out.attempted += 1;
      out.fail(1, "warm-up: " + why.front());
    }
  });
  for (const auto& t : pool) {
    for (const auto& z : t.zooms) digest_bytes(out.inputs_digest, &z.from, sizeof z.from);
  }

  support::Rng order_rng(opt.seed ^ 0xC0FFEEull);
  const auto cycles = [&](double seconds, SpanRecorder* rec, const Names* n) {
    Phase ph;
    std::vector<std::size_t> order(pool.size());
    const auto t0 = Clock::now();
    std::size_t cycle = 0;
    do {
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[order_rng.next_below(i)]);
      }
      for (const std::size_t i : order) {
        std::vector<std::string> why;
        const auto s0 = Clock::now();
        // The op's zooms step through the trace's windows cycle by cycle,
        // so every window is used equally often.
        const bool ok = analysis_op(pool[i], kZoomsPerOp * cycle, rec, n, ph, why);
        const auto s1 = Clock::now();
        ph.op_ms.push_back(static_cast<double>(ns_between(s0, s1)) / 1e6);
        rotator().tick(s1);
        ph.op_trace.push_back(i);
        out.attempted += 1;
        if (!ok) out.fail(1, why.front());
      }
      ++cycle;
    } while (seconds_since(t0) < seconds);
    ph.wall_s = seconds_since(t0);
    return ph;
  };

  if (!opt.trace) {
    Phase ph = cycles(opt.seconds, nullptr, nullptr);
    out.metrics[kSetup] = setup_s;
    out.metrics[kPeakRss] = peak_rss_mb();
    out.metrics[kThroughput] = static_cast<double>(ph.calls) / ph.wall_s;
    put_latencies(out, std::move(ph.op_ms), 0.75, std::move(ph.query_ms), 0.9);
    return out;
  }

  SpanRecorder rec(1u << 16);
  const Names n(rec);
  const Phase untraced = cycles(0.45 * opt.seconds, nullptr, nullptr);
  const Phase traced = cycles(0.45 * opt.seconds, &rec, &n);

  const double ops = static_cast<double>(traced.ops);
  const auto total_ms = [&](SpanRecorder::NameId id) {
    return static_cast<double>(rec.totals(id).total_ns) / 1e6;
  };
  const auto mean_ms = [&](SpanRecorder::NameId id) {
    const auto c = rec.totals(id).count;
    return c == 0 ? 0.0 : total_ms(id) / static_cast<double>(c);
  };
  // Store-open cost per call by trace size: the cliff shows as a rise from
  // the smallest to the largest trace of the pool.
  std::vector<double> by_trace_sum(pool.size(), 0.0);
  std::vector<double> by_trace_n(pool.size(), 0.0);
  for (std::size_t k = 0; k < traced.op_trace.size(); ++k) {
    by_trace_sum[traced.op_trace[k]] += traced.events_open_ns_per_call[k];
    by_trace_n[traced.op_trace[k]] += 1.0;
  }
  std::fprintf(stderr, "store events open by trace size:\n");
  for (std::size_t i = 0; i < pool.size(); ++i) {
    std::fprintf(stderr, "  %8zu calls  %8.1f ns/call\n", pool[i].calls,
                 by_trace_n[i] > 0 ? by_trace_sum[i] / by_trace_n[i] : 0.0);
  }
  const auto per_call_of = [&](std::size_t i) {
    return by_trace_n[i] > 0 ? by_trace_sum[i] / by_trace_n[i] : 0.0;
  };
  const double calls = static_cast<double>(traced.calls);
  auto& m = out.metrics;
  m["tracedb.serialize.load_ns_per_call"] = total_ms(n.flat_load) * 1e6 / calls;
  m["tracedb.store.summary_open_ms"] = mean_ms(n.summary_open);
  m["tracedb.store.bytes_read"] = static_cast<double>(traced.bytes_read) / ops;
  m["tracedb.store.events_open_ns_per_call"] = total_ms(n.events_open) * 1e6 / calls;
  m["tracedb.store.events_open_ns_per_call.smallest"] = per_call_of(0);
  m["tracedb.store.events_open_ns_per_call.largest"] = per_call_of(pool.size() - 1);
  m["tracedb.store.range_load_ms"] = mean_ms(n.range_load);
  m["perf.analyzer.analyze_ms"] = mean_ms(n.analyze);
  m["replay.predict_ms"] = mean_ms(n.analyze_predict) - mean_ms(n.analyze);
  m["perf.calltree.build_ms"] = mean_ms(n.calltree);
  const auto per_op = [](const Phase& ph, double probe_ms) {
    return (ph.wall_s * 1e3 - probe_ms) / static_cast<double>(ph.ops);
  };
  const double layer_ms =
      static_cast<double>(rec.self_ns_where([](const std::string& s) {
        return s != "bench.op" && s != "perf.analyzer.analyze";
      })) / 1e6;
  put_trace_accounting(out, per_op(untraced, 0.0), per_op(traced, traced.probe_ms),
                       layer_ms / ops);
  rec.print_table(stderr);
  if (!rec.write_chrome_json(opt.spans_path)) out.fail(1, "cannot write " + opt.spans_path);
  return out;
}

}  // namespace wallbench
