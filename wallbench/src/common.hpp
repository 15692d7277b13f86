// Shared plumbing of the wall-clock benchmark: run options, the metric map a
// workload fills, wall-clock helpers and sample statistics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace wallbench {

using Clock = std::chrono::steady_clock;

/// FNV-1a offset basis: the digest of no input.
inline constexpr std::uint64_t kDigestSeed = 1469598103934665603ull;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny input sizes and short phases, for the self-test only.
  bool tiny = false;
  /// Scratch directory for traces and stores; created and removed by main.
  std::string work_dir;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string spans_path;
};

/// What one workload run reports.  `metrics` holds end-to-end metrics when
/// untraced and the layers' metrics when traced (main.cpp owns the name
/// tables and checks them).  attempted/failed count the workload's own unit
/// of work; failed > 0 makes the run incorrect.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Hash of the generated inputs: different seeds must give different
  /// inputs, and the self-test checks that they do.
  std::uint64_t inputs_digest = kDigestSeed;
  /// Failure reasons and how often each was reported (printed to stderr).
  std::map<std::string, std::uint64_t> failures;

  void fail(std::uint64_t count, const std::string& why) {
    failed += count;
    failures[why] += 1;
  }
};

/// Merge and replay parallelism, pinned so that results do not follow the
/// host's core count (both default to hardware concurrency).  Never above
/// the 4 vCPUs the benchmark was calibrated on; main.cpp lowers it further
/// on smaller hosts.
inline std::size_t g_worker_threads = 2;

[[nodiscard]] inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

[[nodiscard]] inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Nearest-rank percentile (q in [0, 1]) of unsorted samples; sorts them.
[[nodiscard]] inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

[[nodiscard]] inline double median(std::vector<double> v) { return percentile(v, 0.5); }

/// Interquartile mean (midmean) of unsorted samples: the mean of the middle
/// half, nearest-rank bounds as in percentile(); sorts them.  Where op
/// latencies split into a fast and a slow cluster, as they do on a host
/// whose memory bandwidth other tenants share, the median jumps from one
/// cluster to the other when their shares cross one half; this mean moves
/// with the shares in proportion.
[[nodiscard]] inline double interquartile_mean(std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = std::max(lo + 1, v.size() - v.size() / 4);
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

/// FNV-1a over bytes, for input digests; start from kDigestSeed.
inline void digest_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

/// Peak resident set of this process so far (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

/// Walks the load thread over every CPU it may run on, one step per
/// kRotatePeriod, between ops.  On a virtualised host each vCPU can run at
/// its own speed and keep it for seconds to minutes (1.5-2x apart on the
/// 4-vCPU KVM guest this was calibrated on), and the scheduler leaves a
/// single-threaded process on one vCPU; without rotation a run measures the
/// vCPU it happened to land on.  A step pins the thread to the next CPU and then restores the full
/// mask, so the thread stays there while threads it spawns (merge, replay)
/// may run anywhere.
class CpuRotator {
 public:
  static constexpr auto kRotatePeriod = std::chrono::milliseconds(50);

  CpuRotator();
  /// Steps to the next CPU if a period has passed since the last step.
  void tick(Clock::time_point now) {
    if (now - last_ >= kRotatePeriod) step(now);
  }
  /// Steps to the next CPU now.
  void step(Clock::time_point now);

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  Clock::time_point last_;
};

/// The process's rotator (the benchmark has one load thread).
CpuRotator& rotator();

/// Runs `setup` `reps` times, each on the next CPU, and returns the median
/// wall time of one set-up: a single set-up is one short sample of a machine
/// whose speed drifts.  The state built by the last repetition is the one
/// the timed phase uses.
[[nodiscard]] inline double timed_setups(int reps, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    rotator().step(Clock::now());
    const auto t0 = Clock::now();
    setup();
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

/// End-to-end metric names (every workload reports all of them untraced).
inline constexpr const char* kSetup = "setup_s";
inline constexpr const char* kPeakRss = "peak_rss_mb";
inline constexpr const char* kThroughput = "throughput";
inline constexpr const char* kLatMid = "latency_ms.iqm";
inline constexpr const char* kLatTail = "latency_ms.tail";
inline constexpr const char* kQueryMid = "query_ms.iqm";
inline constexpr const char* kQueryTail = "query_ms.tail";

/// Fills the latency/query end-to-end metrics from per-op samples (ms).
inline void put_latencies(RunResult& out, std::vector<double> op_ms, double op_tail_q,
                          std::vector<double> query_ms, double query_tail_q) {
  out.metrics[kLatMid] = interquartile_mean(op_ms);
  out.metrics[kLatTail] = percentile(op_ms, op_tail_q);
  out.metrics[kQueryMid] = interquartile_mean(query_ms);
  out.metrics[kQueryTail] = percentile(query_ms, query_tail_q);
}

/// Traced-run bookkeeping shared by the workloads: tracing overhead as the
/// difference between the traced and the untraced per-op wall time, and the
/// share of the untraced per-op time that the layer spans' self times
/// account for.
inline void put_trace_accounting(RunResult& out, double untraced_ms_per_op,
                                 double traced_ms_per_op, double layer_self_ms_per_op) {
  out.metrics["bench.trace_overhead_pct"] =
      untraced_ms_per_op > 0.0
          ? 100.0 * (traced_ms_per_op - untraced_ms_per_op) / untraced_ms_per_op
          : 0.0;
  out.metrics["bench.blocking_path_coverage"] =
      untraced_ms_per_op > 0.0 ? layer_self_ms_per_op / untraced_ms_per_op : 0.0;
}

RunResult run_live_monitor(const RunOptions& opt);
RunResult run_postmortem(const RunOptions& opt);
RunResult run_fleet_ingest(const RunOptions& opt);

}  // namespace wallbench
