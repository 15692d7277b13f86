// E3 — §5.2.1 / Figure 5: TaLoS + nginx under sgx-perf.
//
// Performs 1000 HTTPS GET requests against the enclavised TLS stack with the
// event logger attached, then:
//  * prints the per-call counts of the main calls (the Figure 5 edges),
//  * reports the interface width and the short-call percentages the paper
//    quotes (60.78% of ecalls / 73.69% of ocalls below 10 us),
//  * writes the call graph as Graphviz DOT (bench output: talos_callgraph.dot),
//  * runs the analyser and prints its top findings.
#include <cstdio>
#include <fstream>

#include "bench_json.hpp"
#include "minissl/http.hpp"
#include "minissl/talos.hpp"
#include "perf/analyzer.hpp"
#include "perf/logger.hpp"
#include "perf/report.hpp"

int main(int argc, char** argv) {
  using namespace minissl;
  const bool smoke = bench::smoke_flag(argc, argv);
  bench::JsonReport json("talos", smoke);
  const int kRequests = smoke ? 100 : 1000;

  sgxsim::Urts urts;
  tracedb::TraceDatabase trace;
  perf::Logger logger(trace);
  logger.attach(urts);

  std::uint64_t served = 0;
  {
    TalosEnclave talos(urts);
    SslCtx client_ctx;
    for (int r = 0; r < kRequests; ++r) {
      SimConnection conn;
      const auto conn_id =
          talos.register_connection(std::make_unique<PipeEnd>(conn.server_end()));
      auto server_session = talos.new_session(conn_id, /*server=*/true);
      NativeTlsSession client(client_ctx, std::make_unique<PipeEnd>(conn.client_end()), false,
                              static_cast<std::uint64_t>(r) + 1000);
      MiniNginx nginx;
      MiniCurl curl;
      if (run_exchange(nginx, *server_session, curl, client)) ++served;
      talos.drop_connection(conn_id);
    }
  }
  logger.detach();

  std::printf("=== E3: TaLoS + mini-nginx, %d HTTP GET requests (paper §5.2.1, Fig. 5) ===\n\n",
              kRequests);
  std::printf("requests served: %llu/%d\n", static_cast<unsigned long long>(served), kRequests);

  json.metric("requests_served", static_cast<double>(served), "requests");

  perf::Analyzer analyzer(trace);
  analyzer.set_interface(1, sgxsim::edl::parse(kTalosEdl));
  const auto report = analyzer.analyze();
  for (const auto& ov : report.overviews) {
    json.metric("ecall_instances", static_cast<double>(ov.ecall_instances), "calls");
    json.metric("ocall_instances", static_cast<double>(ov.ocall_instances), "calls");
    json.metric("ecalls_below_10us", 100.0 * ov.ecalls_below_10us, "%");
    json.metric("ocalls_below_10us", 100.0 * ov.ocalls_below_10us, "%");
    std::printf(
        "interface: %zu ecalls / %zu ocalls defined; %zu / %zu called "
        "(paper: 207/61 defined, 61/10 called)\n",
        ov.ecalls_defined, ov.ocalls_defined, ov.ecalls_called, ov.ocalls_called);
    std::printf("instances: %zu ecalls, %zu ocalls (paper: 27,631 / 28,969)\n",
                ov.ecall_instances, ov.ocall_instances);
    std::printf(
        "short calls: %.2f%% of ecalls and %.2f%% of ocalls < 10 us "
        "(paper: 60.78%% / 73.69%%)\n\n",
        100.0 * ov.ecalls_below_10us, 100.0 * ov.ocalls_below_10us);
  }

  std::printf("--- main per-request calls (Figure 5 nodes; counts per %d requests) ---\n",
              kRequests);
  std::printf("%-52s %10s %12s %12s\n", "call", "count", "mean[us]", "p99[us]");
  for (const auto& s : report.stats) {
    if (s.duration_ns.count < static_cast<std::size_t>(kRequests) / 2) continue;
    std::printf("%s %-50s %10zu %12.2f %12.2f\n",
                s.key.type == tracedb::CallType::kEcall ? "E" : "O", s.name.c_str(),
                s.duration_ns.count, s.duration_ns.mean / 1e3, s.duration_ns.p99 / 1e3);
  }

  const std::string dot = perf::render_callgraph_dot(trace);
  {
    std::ofstream out("talos_callgraph.dot");
    out << dot;
  }
  std::printf("\ncall graph written to talos_callgraph.dot (%zu bytes, %s)\n", dot.size(),
              "square=ecall, round=ocall, solid=direct, dashed=indirect");

  std::printf("\n--- analyser findings (top 12) ---\n");
  std::size_t shown = 0;
  for (const auto& f : report.findings) {
    if (++shown > 12) break;
    std::printf("[%zu] %s: %s\n", shown, perf::to_string(f.kind), f.subject_name.c_str());
    for (const auto& r : f.recommendations) std::printf("     -> %s\n", perf::to_string(r.action));
  }
  json.metric("findings", static_cast<double>(report.findings.size()), "findings");
  return json.write() ? 0 : 1;
}
