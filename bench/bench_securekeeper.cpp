// E6/E7/E8 — §5.2.4 / Figures 7 and 8: SecureKeeper-like proxy under load.
//
// Runs the multi-client workload with the logger attached, then produces:
//  * Figure 7: the execution-time histogram (100 bins) of
//    ecall_handle_input_from_client (ASCII + securekeeper_histogram.csv),
//  * Figure 8: the scatter of execution time over application time
//    (ASCII + securekeeper_scatter.csv),
//  * E8: interface narrowness, mean ecall durations vs the transition cost,
//    sync-ocall timing (connection storm only) and the working-set /
//    EPC-capacity estimate (paper: 322/94 pages; 249 enclaves fit the EPC).
#include <cstdio>
#include <fstream>

#include "bench_json.hpp"
#include "minikv/driver.hpp"
#include "perf/analyzer.hpp"
#include "perf/logger.hpp"
#include "perf/report.hpp"
#include "perf/workingset.hpp"
#include "support/strutil.hpp"

int main(int argc, char** argv) {
  using namespace minikv;
  const bool smoke = bench::smoke_flag(argc, argv);
  bench::JsonReport json("securekeeper", smoke);

  std::printf("=== E6-E8: SecureKeeper-like proxy (paper §5.2.4, Figs. 7/8) ===\n\n");

  // Phase 1 — the connection storm: many clients connect simultaneously,
  // contending on the in-enclave session map (sleep/wake ocalls expected).
  // The clients free-run on OS threads, so whether any of them actually
  // collide inside the session map is scheduler luck; retry a few times so
  // the exit-status assertion checks "the storm *can* contend", not "this
  // particular interleaving did".  For the same reason the count is printed
  // and kept out of the JSON.
  std::size_t storm_sync_events = 0;
  for (int attempt = 0; attempt < 5 && storm_sync_events == 0; ++attempt) {
    sgxsim::Urts storm_urts;
    Store storm_store(storm_urts.clock());
    KvProxy storm_proxy(storm_urts, storm_store);
    tracedb::TraceDatabase storm_trace;
    perf::Logger storm_logger(storm_trace);
    storm_logger.attach(storm_urts);
    DriverConfig storm_config;
    storm_config.clients = 12;
    storm_config.ops_per_client = 50;
    const DriverReport storm = run_workload(storm_proxy, storm_config);
    storm_logger.detach();
    storm_sync_events = storm_trace.syncs().size();
    std::printf("connection storm: %zu clients, %llu ops, %zu sync (sleep/wake) events "
                "(paper: 18 sync ocalls, all during connect)\n\n",
                storm_config.clients, static_cast<unsigned long long>(storm.operations),
                storm_sync_events);
  }

  // Phase 2 — steady-state load from one pipelined client: clean per-call
  // timings for the Figure 7/8 plots (a single shared virtual clock would
  // otherwise attribute concurrent threads' work to each other's calls).
  sgxsim::Urts urts;
  Store store(urts.clock());
  KvProxy::Config proxy_config;
  proxy_config.connect_spin_iterations = 0;
  KvProxy proxy(urts, store, proxy_config);
  tracedb::TraceDatabase trace;
  perf::Logger logger(trace);
  logger.attach(urts);

  DriverConfig config;
  config.clients = 1;
  config.ops_per_client = smoke ? 2'000 : 20'000;
  const DriverReport report = run_workload(proxy, config);
  logger.detach();

  std::printf("clients: %zu, operations: %llu (failures: %llu), virtual duration: %.2f s, "
              "throughput: %.0f ops/s\n",
              config.clients, static_cast<unsigned long long>(report.operations),
              static_cast<unsigned long long>(report.failures),
              static_cast<double>(report.virtual_duration_ns) / 1e9,
              report.throughput_ops_per_s);
  json.metric("throughput_ops_per_s", report.throughput_ops_per_s, "ops/s");

  perf::Analyzer analyzer(trace);
  analyzer.set_interface(proxy.enclave_id(), sgxsim::edl::parse(kKvEdl));
  const auto analysis = analyzer.analyze();
  for (const auto& ov : analysis.overviews) {
    std::printf("interface: %zu ecalls / %zu ocalls defined; %zu / %zu called "
                "(paper: 2/6 defined, 2/3 called)\n",
                ov.ecalls_defined, ov.ocalls_defined, ov.ecalls_called, ov.ocalls_called);
  }
  std::printf("\n--- call statistics (paper: both ecalls ~14/18 us, 4-6x the transition) ---\n");
  std::printf("%-44s %10s %10s %10s\n", "call", "count", "mean[us]", "p99[us]");
  for (const auto& s : analysis.stats) {
    std::printf("%s %-42s %10zu %10.2f %10.2f\n",
                s.key.type == tracedb::CallType::kEcall ? "E" : "O", s.name.c_str(),
                s.duration_ns.count, s.duration_ns.mean / 1e3, s.duration_ns.p99 / 1e3);
  }

  // Sync ocalls: connection storm only (paper observed 18, none afterwards).
  std::printf("\nsync events: %zu (sleep+wake, connection storm; paper saw 18 sync ocalls "
              "during connect, none in steady state)\n",
              trace.syncs().size());

  // --- Figure 7: histogram ---------------------------------------------------------
  const tracedb::CallKey key{proxy.enclave_id(), tracedb::CallType::kEcall, 0};
  const auto hist = perf::duration_histogram(trace, key, 100);
  std::printf("\n--- Figure 7: ecall_handle_input_from_client duration histogram "
              "(100 bins; paper mode ~15 us) ---\n");
  // Compact the 100 bins to 25 rows for the console; the CSV has all 100.
  {
    const auto full = perf::duration_histogram(trace, key, 25);
    std::fputs(full.render_ascii(48, "us").c_str(), stdout);
  }
  {
    std::ofstream out("securekeeper_histogram.csv");
    out << hist.to_csv();
  }
  std::printf("full histogram written to securekeeper_histogram.csv\n");

  // --- Figure 8: scatter -------------------------------------------------------------
  std::printf("\n--- Figure 8: execution time over application time ---\n");
  std::fputs(perf::render_scatter_ascii(trace, key, 72, 14).c_str(), stdout);
  {
    std::ofstream out("securekeeper_scatter.csv");
    out << perf::scatter_csv(trace, key);
  }
  std::printf("full scatter written to securekeeper_scatter.csv\n");

  // --- E8: working set and EPC capacity ------------------------------------------------
  {
    sgxsim::Urts ws_urts;
    Store ws_store(ws_urts.clock());
    KvProxy ws_proxy(ws_urts, ws_store);
    perf::WorkingSetEstimator ws(ws_urts.enclave(ws_proxy.enclave_id()));
    ws.start();
    for (std::uint64_t c = 0; c < 4; ++c) ws_proxy.connect_client(c);
    const auto startup = ws.checkpoint();
    for (int i = 0; i < 50; ++i) {
      Request req;
      req.client_id = static_cast<std::uint64_t>(i % 4);
      req.xid = static_cast<std::uint64_t>(i + 1);
      req.op = i % 2 == 0 ? OpCode::kCreate : OpCode::kGetData;
      const std::string path = support::format("/bench/%d", i % 16);
      req.path.assign(path.begin(), path.end());
      if (req.op == OpCode::kCreate) req.payload.assign(900, 1);
      (void)ws_proxy.process(req);
    }
    const auto steady = ws.accessed_pages();
    ws.stop();

    const auto& enclave = ws_urts.enclave(ws_proxy.enclave_id());
    const std::size_t epc_pages = ws_urts.driver().epc_pages();
    const std::size_t enclaves_per_epc = epc_pages / enclave.total_pages();
    std::printf("\nworking set: %zu pages (%s) at start-up, %zu pages (%s) in steady state "
                "(paper: 322 / 94)\n",
                startup.size(),
                support::format_bytes(startup.size() * sgxsim::kPageSize).c_str(),
                steady.size(), support::format_bytes(steady.size() * sgxsim::kPageSize).c_str());
    std::printf("enclave size: %zu pages; one-enclave-per-client fits ~%zu enclaves in the "
                "93 MiB EPC (paper: 249)\n",
                enclave.total_pages(), enclaves_per_epc);
    json.metric("working_set_startup", static_cast<double>(startup.size()), "pages");
    json.metric("working_set_steady", static_cast<double>(steady.size()), "pages");
    json.metric("enclaves_per_epc", static_cast<double>(enclaves_per_epc), "enclaves");
  }

  std::printf("\nanalyser findings: %zu (paper: 'we were not able to spot any performance "
              "optimisation possibilities' beyond the storm)\n",
              analysis.findings.size());
  json.metric("findings", static_cast<double>(analysis.findings.size()), "findings");
  if (!json.write()) return 1;
  return report.failures == 0 && storm_sync_events > 0 ? 0 : 1;
}
