// Determinism of the stress suite: identical (stressor, threads, seed,
// duration) configs must produce identical bogo-ops counts and byte-identical
// merged traces, at thread counts 1/2/7.  This is what makes the stressors
// usable as golden corpora: the lockstep scheduler serializes ops in worker
// order (pinning ThreadId registration), the virtual clock serializes time,
// and the sequential shard merge is a unique total order, so nothing
// observable depends on OS scheduling.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "perf/logger.hpp"
#include "sgxsim/runtime.hpp"
#include "stress/stressor.hpp"
#include "tracedb/database.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

stress::StressResult run_once(const std::string& name, std::size_t threads,
                              const std::string& trace_path) {
  const auto stressor = stress::make_stressor(name);
  EXPECT_NE(stressor, nullptr) << name;
  sgxsim::Urts urts;
  tracedb::TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);
  stress::StressConfig config;
  config.threads = threads;
  config.duration_ns = 20'000'000;
  config.seed = 7;
  const auto result = stress::run_stressor(*stressor, urts, config);
  logger.detach();
  EXPECT_EQ(db.merge_stats().dropped, 0u) << name;
  db.save(trace_path);
  return result;
}

TEST(StressDeterminism, IdenticalConfigsProduceIdenticalRuns) {
  const std::string dir = ::testing::TempDir();
  for (const std::string name : {"cpu", "sync", "ocall-storm"}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
      const std::string tag = name + "-t" + std::to_string(threads);
      const std::string path_a = dir + "stress_det_a_" + tag + ".bin";
      const std::string path_b = dir + "stress_det_b_" + tag + ".bin";
      const auto a = run_once(name, threads, path_a);
      const auto b = run_once(name, threads, path_b);

      EXPECT_GT(a.bogo_ops, 0u) << tag;
      EXPECT_EQ(a.bogo_ops, b.bogo_ops) << tag;
      EXPECT_EQ(a.per_thread_ops, b.per_thread_ops) << tag;
      EXPECT_EQ(a.elapsed_ns, b.elapsed_ns) << tag;

      const auto bytes_a = read_file(path_a);
      const auto bytes_b = read_file(path_b);
      EXPECT_FALSE(bytes_a.empty()) << tag;
      EXPECT_EQ(bytes_a, bytes_b) << tag << ": merged traces are not byte-identical";
    }
  }
}

}  // namespace
