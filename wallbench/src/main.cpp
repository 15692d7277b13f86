// wallbench: wall-clock cost of sgx-perf itself, end to end and per layer.
//
//   wallbench --workload live-monitor|postmortem|fleet-ingest --seed N
//             --seconds S --trace 0|1 [--tiny]
//
// Untraced (--trace 0), the last stdout line is one JSON object with every
// end-to-end metric; traced (--trace 1), with every per-layer metric, and
// the spans go to .bench_out/.  A layer a workload bypasses reports 0.
// Exit status 0 when every correctness check passed, 1 when one failed, 2
// on a usage or runtime error (no result line then).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <sched.h>
#include <unistd.h>

#include "common.hpp"

namespace wallbench {

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

CpuRotator::CpuRotator() : last_(Clock::now()) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
}

void CpuRotator::step(Clock::time_point now) {
  last_ = now;
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_], &one);
  ::sched_setaffinity(0, sizeof one, &one);  // migrates this thread now
  cpu_set_t all;
  CPU_ZERO(&all);
  for (const int c : cpus_) CPU_SET(c, &all);
  ::sched_setaffinity(0, sizeof all, &all);
  next_ = (next_ + 1) % cpus_.size();
}

CpuRotator& rotator() {
  static CpuRotator r;
  return r;
}

}  // namespace wallbench

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload untraced.  Throughput's
/// unit of work is per workload: traced events (live-monitor), trace calls
/// analysed (postmortem), MB ingested (fleet-ingest).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},       {"throughput", "work/s"},
    {"latency_ms.iqm", "ms"},   {"latency_ms.tail", "ms"},   {"query_ms.iqm", "ms"},
    {"query_ms.tail", "ms"},
};

/// Per-layer metrics of the traced run, named after the repository's
/// modules.
constexpr MetricDef kPerLayer[] = {
    {"sgxsim.request_us", "us"},
    {"perf.logger.record_ns_per_event", "ns/event"},
    {"perf.logger.events", "count"},
    {"perf.session.poll_ns_per_event", "ns/event"},
    {"perf.online.feed_ns_per_event", "ns/event"},
    {"perf.online.windows", "count"},
    {"perf.online.alerts_raised", "count"},
    {"perf.stream.dropped", "count"},
    {"tracedb.merge_ms", "ms"},
    {"perf.session.finish_ms", "ms"},
    {"tracedb.store.commit_ms", "ms"},
    {"tracedb.store.bytes_written", "bytes"},
    {"tracedb.serialize.load_ns_per_call", "ns/call"},
    {"tracedb.store.summary_open_ms", "ms"},
    {"tracedb.store.bytes_read", "bytes"},
    {"tracedb.store.events_open_ns_per_call", "ns/call"},
    {"tracedb.store.events_open_ns_per_call.smallest", "ns/call"},
    {"tracedb.store.events_open_ns_per_call.largest", "ns/call"},
    {"tracedb.store.range_load_ms", "ms"},
    {"perf.analyzer.analyze_ms", "ms"},
    {"replay.predict_ms", "ms"},
    {"perf.calltree.build_ms", "ms"},
    {"fleet.wire.parse_ns_per_byte", "ns/B"},
    {"fleet.aggregator.merge_ns_per_byte", "ns/B"},
    {"fleet.aggregator.windows_merged", "count"},
    {"fleet.aggregator.producers_quarantined", "count"},
    {"fleet.aggregator.snapshot_ms", "ms"},
    {"fleet.aggregator.top_ms", "ms"},
    {"fleet.aggregator.alerts_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.blocking_path_coverage", "ratio"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "wallbench: %s\nusage: wallbench --workload live-monitor|postmortem|fleet-ingest "
               "--seed N --seconds S --trace 0|1 [--tiny]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  wallbench::RunOptions opt;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (a == "--workload" && has_value) {
        opt.workload = argv[++i];
      } else if (a == "--seed" && has_value) {
        opt.seed = std::stoull(argv[++i]);
      } else if (a == "--seconds" && has_value) {
        opt.seconds = std::stod(argv[++i]);
        have_seconds = true;
      } else if (a == "--trace" && has_value) {
        opt.trace = std::string(argv[++i]) == "1";
      } else if (a == "--tiny") {
        opt.tiny = true;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!have_seconds || !(opt.seconds > 0.0)) return usage("--seconds must be positive");

  wallbench::RunResult (*run)(const wallbench::RunOptions&) = nullptr;
  if (opt.workload == "live-monitor") run = wallbench::run_live_monitor;
  if (opt.workload == "postmortem") run = wallbench::run_postmortem;
  if (opt.workload == "fleet-ingest") run = wallbench::run_fleet_ingest;
  if (run == nullptr) return usage("unknown --workload");

  const unsigned hw = std::thread::hardware_concurrency();
  wallbench::g_worker_threads =
      hw == 0 ? 1 : std::min<std::size_t>(wallbench::g_worker_threads, hw);

  // All files stay inside the working directory (the checkout).
  opt.work_dir = ".bench_work/" + opt.workload + "-" + std::to_string(::getpid());
  opt.spans_path =
      ".bench_out/spans-" + opt.workload + "-seed" + std::to_string(opt.seed) + ".json";
  wallbench::RunResult result;
  try {
    fs::remove_all(opt.work_dir);
    fs::create_directories(opt.work_dir);
    fs::create_directories(".bench_out");
    result = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wallbench: %s: %s\n", opt.workload.c_str(), e.what());
    std::error_code ec;
    fs::remove_all(opt.work_dir, ec);
    return 2;
  }
  std::error_code ec;
  fs::remove_all(opt.work_dir, ec);

  for (const auto& [why, times] : result.failures) {
    std::fprintf(stderr, "wallbench: FAILED (%llux): %s\n", static_cast<unsigned long long>(times),
                 why.c_str());
  }
  std::fprintf(stderr,
               "wallbench: workload=%s seed=%llu trace=%d worker_threads=%zu inputs_digest=%016llx "
               "attempted=%llu failed=%llu error_rate=%.6g\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
               wallbench::g_worker_threads, static_cast<unsigned long long>(result.inputs_digest),
               static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed),
               result.attempted == 0 ? 0.0
                                     : static_cast<double>(result.failed) /
                                           static_cast<double>(result.attempted));

  const auto listed = [](const std::string& name, const auto& defs) {
    return std::any_of(std::begin(defs), std::end(defs),
                       [&](const MetricDef& d) { return name == d.name; });
  };
  for (const auto& entry : result.metrics) {
    if (!listed(entry.first, kPerLayer) && !listed(entry.first, kEndToEnd)) {
      std::fprintf(stderr, "wallbench: internal error: unlisted metric %s\n", entry.first.c_str());
      return 2;
    }
  }
  std::string metrics;
  const auto emit_all = [&](const auto& defs, bool missing_is_zero) {
    for (const MetricDef& d : defs) {
      const auto it = result.metrics.find(d.name);
      // A per-layer metric a workload does not set belongs to a layer it
      // bypasses: no work there.
      const double v = it != result.metrics.end() ? it->second
                       : missing_is_zero          ? 0.0
                                                  : NAN;
      if (!std::isfinite(v)) {
        std::fprintf(stderr, "wallbench: internal error: no finite value for %s\n", d.name);
        return false;
      }
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    metrics.empty() ? "" : ", ", d.name, v, d.unit);
      metrics += buf;
    }
    return true;
  };
  if (!(opt.trace ? emit_all(kPerLayer, true) : emit_all(kEndToEnd, false))) return 2;
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
