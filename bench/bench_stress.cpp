// E14 — stress suite throughput + online verdicts under storm.
//
// Two questions:
//  * bogo-ops per virtual second per stressor — the Stress-SGX-style
//    headline number (deterministic, comparable across machines);
//  * what OnlineAnalyzer::feed() concludes on a real ocall-storm stream,
//    recorded from the storm stressor through the actual logger — the
//    nastiest event mix the suite generates.
// Wall-clock costs of the same layers are wallbench's per-layer metrics.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "perf/logger.hpp"
#include "perf/online.hpp"
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

  // Record a real ocall-storm stream through the logger, then feed it to
  // the online analyser.
  const auto storm = stress::make_stressor("ocall-storm");
  sgxsim::Urts urts;
  tracedb::TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);
  auto sub = logger.subscribe("bench-stress", 1 << 20);
  stress::StressConfig config;
  config.threads = 4;
  config.duration_ns = smoke ? 100'000'000 : 1'000'000'000;
  const auto storm_result = stress::run_stressor(*storm, urts, config);
  logger.detach();

  std::vector<perf::StreamEvent> events;
  std::vector<perf::StreamEvent> batch;
  std::uint64_t end_ns = 0;
  while (sub->poll(batch, 4096) > 0) {
    for (const auto& ev : batch) {
      end_ns = std::max(end_ns, ev.end_ns);
      events.push_back(ev);
    }
    batch.clear();
  }
  sub->close();

  perf::OnlineAnalyzer online;
  online.feed(events);
  online.finish(end_ns);

  std::printf("\nstorm stream:     %zu events from %llu bogo-ops (dropped: %llu)\n",
              events.size(), static_cast<unsigned long long>(storm_result.bogo_ops),
              static_cast<unsigned long long>(sub->dropped()));
  std::printf("online analyser:  %zu alerts recorded\n", online.alerts().size());

  json.metric("storm_events", static_cast<double>(events.size()), "events");
  json.metric("storm_alerts", static_cast<double>(online.alerts().size()), "alerts");
  return json.write() ? 0 : 1;
}
