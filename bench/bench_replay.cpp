// E12 — what-if replay: predicted vs measured switchless speedup.
//
// Records the SecureKeeper-like minikv workload, validates the replay
// engine's identity reconstruction against the recorded trace, predicts the
// speedup of converting both input ecalls to switchless calls (worker-count
// sweep per site), then actually applies the recommendation — re-runs the
// workload with the switchless EDL variant and the runtime worker pool
// enabled — and compares the measured speedup with the prediction.
//
// Pool-shape caveat: the replay engine provisions an independent worker pool
// per converted site, while the runtime shares one per-enclave pool across
// both sites; the measured run therefore gets 2x the per-site best count so
// both arms have the same total worker budget.
//
// The minikv clients free-run on OS threads, so the recorded trace, and with
// it every number here, depends on scheduling: the bench prints its results
// and writes no JSON.  The exit status still gates the 1% identity
// validation and a failure-free workload.
#include <cstdio>

#include "bench_json.hpp"
#include "minikv/driver.hpp"
#include "perf/logger.hpp"
#include "replay/engine.hpp"
#include "replay/render.hpp"
#include "tracedb/query.hpp"

namespace {

minikv::DriverReport record_run(tracedb::TraceDatabase& db, const minikv::DriverConfig& dcfg,
                                bool switchless, std::size_t pool_workers) {
  sgxsim::Urts urts;
  perf::Logger logger(db);
  logger.attach(urts);
  minikv::DriverReport report;
  {
    minikv::Store store(urts.clock());
    minikv::KvProxy::Config pcfg;
    pcfg.switchless_ecalls = switchless;
    minikv::KvProxy proxy(urts, store, pcfg);
    if (switchless) urts.set_switchless_workers(proxy.enclave_id(), pool_workers);
    report = minikv::run_workload(proxy, dcfg);
  }
  logger.detach();
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_flag(argc, argv);

  minikv::DriverConfig dcfg;
  dcfg.clients = smoke ? 3 : 8;
  dcfg.ops_per_client = smoke ? 150 : 1000;

  std::printf("=== E12: what-if replay — predicted vs measured switchless speedup ===\n");
  std::printf("workload: minikv, %zu clients x %zu ops\n\n", dcfg.clients, dcfg.ops_per_client);

  // --- 1. record the baseline --------------------------------------------------
  tracedb::TraceDatabase baseline;
  const auto base_report = record_run(baseline, dcfg, /*switchless=*/false, 0);
  std::printf("baseline: %llu ops in %.2f virtual ms (%.0f ops/s)\n",
              static_cast<unsigned long long>(base_report.operations),
              static_cast<double>(base_report.virtual_duration_ns) / 1e6,
              base_report.throughput_ops_per_s);

  // --- 2. validate the replay against the recording ----------------------------
  const tracedb::TraceIndex index = tracedb::index_trace(baseline);
  replay::ReplayEngine engine(baseline, index);
  const auto validation = engine.validate();
  std::fputs(replay::render_validation(validation).c_str(), stdout);
  if (!validation.within(0.01)) {
    std::fputs("error: identity replay drifted more than 1% from the recording\n", stderr);
    return 1;
  }

  // --- 3. predict: switchless sweep over both input ecalls ---------------------
  const auto client_site =
      tracedb::find_call_by_name(baseline, 1, "ecall_handle_input_from_client");
  const auto server_site =
      tracedb::find_call_by_name(baseline, 1, "ecall_handle_input_from_server");
  if (!client_site || !server_site) {
    std::fputs("error: input ecalls missing from the recorded trace\n", stderr);
    return 1;
  }
  const auto sweep = engine.sweep_switchless(*client_site, 1, 4);
  std::fputs("\n", stdout);
  std::fputs(replay::render_sweep_text(sweep, 1).c_str(), stdout);

  replay::Scenario combined;
  combined.name = "switchless both input ecalls";
  combined.switchless.push_back({*client_site, sweep.best_workers});
  combined.switchless.push_back({*server_site, sweep.best_workers});
  const auto predicted = engine.run(combined);
  std::printf("\npredicted: %.2fx (%.2f -> %.2f virtual ms, %llu transitions removed)\n",
              predicted.speedup(),
              static_cast<double>(predicted.recorded_span_ns) / 1e6,
              static_cast<double>(predicted.replayed_span_ns) / 1e6,
              static_cast<unsigned long long>(predicted.transitions_removed));

  // --- 4. measure: apply the recommendation and re-record ----------------------
  tracedb::TraceDatabase after;
  const auto sw_report =
      record_run(after, dcfg, /*switchless=*/true, 2 * sweep.best_workers);
  const double measured = static_cast<double>(base_report.virtual_duration_ns) /
                          static_cast<double>(sw_report.virtual_duration_ns);
  std::printf("measured:  %.2fx (%.2f -> %.2f virtual ms, switchless EDL + %zu workers)\n",
              measured, static_cast<double>(base_report.virtual_duration_ns) / 1e6,
              static_cast<double>(sw_report.virtual_duration_ns) / 1e6,
              2 * sweep.best_workers);

  const double error = measured > 0.0
                           ? 100.0 * (predicted.speedup() - measured) / measured
                           : 0.0;
  std::printf("prediction error: %+.1f%%\n", error);
  if (base_report.failures + sw_report.failures > 0) {
    std::fprintf(stderr, "error: %llu workload failures\n",
                 static_cast<unsigned long long>(base_report.failures + sw_report.failures));
    return 1;
  }
  return 0;
}
