// Bounded soak: the mixed and ocall-storm stressors pushed through the full
// live-observability stack (Logger::subscribe stream -> OnlineAnalyzer on a
// consumer thread) in free-running mode — real thread concurrency on the
// recording hot paths, at an order of magnitude more events than the other
// online tests.  Run under TSan/ASan/UBSan by tools/ci.sh.
//
// Free-running workers share the virtual clock, so individual durations are
// interleaving-dependent and labels are NOT asserted here (that is the
// lockstep accuracy test's job).  What must hold regardless of scheduling:
//  * zero sealed-shard drops — no event is ever lost to the merge;
//  * zero stream drops at a ring capacity sized above the event count;
//  * no pending-parent evictions in the online analyser;
//  * the run actually reaches soak scale (events, windows).
#include <gtest/gtest.h>

#include <cstdio>

#include "sgxsim/runtime.hpp"
#include "stress/harness.hpp"
#include "tracedb/database.hpp"

namespace {

stress::SoakResult soak(const std::string& name, support::Nanoseconds duration_ns,
                        std::size_t epc_pages) {
  const auto stressor = stress::make_stressor(name);
  EXPECT_NE(stressor, nullptr) << name;
  sgxsim::Urts urts(sgxsim::CostModel::preset(sgxsim::PatchLevel::kUnpatched), epc_pages);
  tracedb::TraceDatabase db;
  stress::SoakConfig config;
  config.stress.threads = 4;
  config.stress.duration_ns = duration_ns;
  config.stress.lockstep = false;  // free-running: true concurrency
  config.subscription_capacity = 1 << 18;
  const auto result = stress::run_soak(*stressor, urts, db, config);

  EXPECT_EQ(result.session.sealed_dropped, 0u) << name;
  EXPECT_EQ(result.session.stream_dropped, 0u) << name;
  EXPECT_EQ(result.session.pending_evicted, 0u) << name;
  EXPECT_GT(result.windows, 0u) << name;
  EXPECT_GT(result.stress.bogo_ops, 0u) << name;
  // Post-mortem side of the same run: the merged trace saw every call the
  // stream did (calls produce 1 stream event each; AEX/paging add more).
  EXPECT_GE(result.session.events, db.calls().size()) << name;
  std::printf("soak %-12s %llu events, %llu windows, %llu bogo-ops, %llu alerts raised\n",
              name.c_str(), static_cast<unsigned long long>(result.session.events),
              static_cast<unsigned long long>(result.windows),
              static_cast<unsigned long long>(result.stress.bogo_ops),
              static_cast<unsigned long long>(result.session.alerts_raised));
  return result;
}

TEST(StressSoak, MixedFreeRunIsLossless) {
  const auto result = soak("mixed", 80'000'000, 1024);
  // ~10k events — two orders of magnitude above the parity tests' demo runs.
  EXPECT_GE(result.session.events, 5'000u);
}

TEST(StressSoak, OcallStormFreeRunIsLossless) {
  const auto result = soak("ocall-storm", 100'000'000, sgxsim::Driver::kDefaultEpcPages);
  EXPECT_GE(result.session.events, 5'000u);
}

}  // namespace
