// E14 — stress suite throughput + online verdicts under storm.
//
// Two questions:
//  * bogo-ops per virtual second per stressor — the Stress-SGX-style
//    headline number (deterministic, comparable across machines);
//  * what the online analyser concludes on a real ocall-storm stream,
//    recorded from the storm stressor through the actual logger into a
//    MonitorSession — the nastiest event mix the suite generates.
// Wall-clock costs of the same layers are wallbench's per-layer metrics.
#include <cstdio>
#include <string>

#include "bench_json.hpp"
#include "perf/logger.hpp"
#include "perf/session.hpp"
#include "sgxsim/runtime.hpp"
#include "stress/stressor.hpp"
#include "tracedb/database.hpp"

namespace {

/// 4 MiB EPC for the paging stressors so the 1.25x-EPC working set stays
/// bench-sized; the transition/sync stressors never page and keep the default.
std::size_t epc_pages_for(const std::string& name) {
  return (name == "vm" || name == "mixed") ? 1024 : sgxsim::Driver::kDefaultEpcPages;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_flag(argc, argv);
  bench::JsonReport json("stress", smoke);

  std::printf("=== E14: stress suite bogo-ops + online verdicts under storm ===\n\n");
  std::printf("%-12s %10s %14s\n", "stressor", "bogo-ops", "bogo-ops/vs");

  for (const auto& name : stress::stressor_names()) {
    const auto stressor = stress::make_stressor(name);
    sgxsim::Urts urts(sgxsim::CostModel::preset(sgxsim::PatchLevel::kUnpatched),
                      epc_pages_for(name));
    stress::StressConfig config;
    config.threads = 4;
    config.duration_ns = smoke ? 40'000'000 : 400'000'000;
    const auto result = stress::run_stressor(*stressor, urts, config);
    std::printf("%-12s %10llu %14.0f\n", name.c_str(),
                static_cast<unsigned long long>(result.bogo_ops), result.bogo_ops_per_vsec());
    json.metric(name + "_bogo_ops", static_cast<double>(result.bogo_ops), "ops");
    json.metric(name + "_bogo_ops_per_vsec", result.bogo_ops_per_vsec(), "ops/s");
  }

  // Record a real ocall-storm stream through the logger into a monitor
  // session, which drains it once the run has quiesced.
  const auto storm = stress::make_stressor("ocall-storm");
  sgxsim::Urts urts;
  tracedb::TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);
  perf::MonitorSessionConfig session_config;
  session_config.subscription_name = "bench-stress";
  session_config.subscription_capacity = 1 << 20;
  perf::MonitorSession session(logger, session_config);
  stress::StressConfig config;
  config.threads = 4;
  config.duration_ns = smoke ? 100'000'000 : 1'000'000'000;
  const auto storm_result = stress::run_stressor(*storm, urts, config);
  logger.detach();
  session.finish();

  const perf::SessionStats stats = session.stats();
  const auto& alerts = session.analyzer().alerts();
  std::printf("\nstorm stream:     %llu events from %llu bogo-ops (dropped: %llu)\n",
              static_cast<unsigned long long>(stats.events),
              static_cast<unsigned long long>(storm_result.bogo_ops),
              static_cast<unsigned long long>(stats.stream_dropped));
  std::printf("online analyser:  %zu alerts recorded\n", alerts.size());

  json.metric("storm_events", static_cast<double>(stats.events), "events");
  json.metric("storm_alerts", static_cast<double>(alerts.size()), "alerts");
  return json.write() ? 0 : 1;
}
