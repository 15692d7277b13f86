// E5 — §5.2.3 / Figure 6 (right): Glamdring-partitioned LibreSSL signing.
//
// Runs the certificate-signing loop in the native, partitioned and optimised
// builds at all three patch levels, reporting signs/s and the normalised
// ratios of Figure 6; then attaches the logger to the partitioned build and
// shows the trace that leads to the optimisation (bn_sub_part_words at
// ~99.5% of ecalls, flagged SISC/batchable by the analyser) plus the
// working-set measurement (paper: 61 pages at start-up, 32 during the run).
#include <cstdio>

#include "bench_json.hpp"
#include "glamdring/glamdring.hpp"
#include "perf/analyzer.hpp"
#include "perf/logger.hpp"
#include "perf/workingset.hpp"

int main(int argc, char** argv) {
  using namespace glamdring;
  const bool smoke = bench::smoke_flag(argc, argv);
  bench::JsonReport json("glamdring", smoke);

  std::printf("=== E5: Glamdring-partitioned signing (paper §5.2.3, Fig. 6 right) ===\n");
  std::printf(
      "paper: native 145 signs/s, partitioned 33.9; optimisation wins 2.16x / 2.66x "
      "(+Spectre) / 2.87x (+L1TF)\n\n");

  // A shorter virtual window than the paper's 30 s keeps real time low; the
  // virtual-time rates are duration-independent (smoke shrinks it further).
  const support::Nanoseconds kWindow = smoke ? 300'000'000 : 3'000'000'000;

  std::printf("%-16s %12s %14s %14s %12s %12s\n", "patch level", "native[/s]", "partitioned",
              "optimised", "part/nat", "opt/part");
  for (const auto lvl : {sgxsim::PatchLevel::kUnpatched, sgxsim::PatchLevel::kSpectre,
                         sgxsim::PatchLevel::kSpectreL1tf}) {
    sgxsim::Urts urts(sgxsim::CostModel::preset(lvl));
    SigningBenchmark native(urts, Variant::kNative);
    SigningBenchmark partitioned(urts, Variant::kPartitioned);
    SigningBenchmark optimized(urts, Variant::kOptimized);
    const auto n = native.run_for(kWindow);
    const auto p = partitioned.run_for(kWindow);
    const auto o = optimized.run_for(kWindow);
    std::printf("%-16s %12.1f %14.1f %14.1f %11.2fx %11.2fx\n", sgxsim::to_string(lvl),
                n.signs_per_s, p.signs_per_s, o.signs_per_s, p.signs_per_s / n.signs_per_s,
                o.signs_per_s / p.signs_per_s);
    const std::string lvl_name = sgxsim::to_string(lvl);
    json.metric("native_signs_per_s." + lvl_name, n.signs_per_s, "signs/s");
    json.metric("partitioned_signs_per_s." + lvl_name, p.signs_per_s, "signs/s");
    json.metric("optimised_signs_per_s." + lvl_name, o.signs_per_s, "signs/s");
    json.metric("batch_speedup." + lvl_name, o.signs_per_s / p.signs_per_s, "x");
  }

  // --- the profiling pass --------------------------------------------------------
  sgxsim::Urts urts;
  tracedb::TraceDatabase trace;
  perf::Logger logger(trace);
  logger.attach(urts);
  {
    SigningBenchmark partitioned(urts, Variant::kPartitioned);
    for (std::uint64_t i = 0; i < 10; ++i) (void)partitioned.sign(i);
  }
  logger.detach();

  std::uint64_t sub_calls = 0;
  std::uint64_t total_ecalls = 0;
  std::uint64_t total_ocalls = 0;
  std::uint64_t short_ocalls = 0;
  double sub_mean_ns = 0;
  for (const auto& c : trace.calls()) {
    if (c.type == tracedb::CallType::kEcall) {
      ++total_ecalls;
      if (trace.name_of(c.enclave_id, c.type, c.call_id) == "ecall_bn_sub_part_words") {
        ++sub_calls;
        sub_mean_ns += static_cast<double>(c.duration());
      }
    } else {
      ++total_ocalls;
      if (c.duration() < 1'000) ++short_ocalls;
    }
  }
  if (sub_calls > 0) sub_mean_ns /= static_cast<double>(sub_calls);

  std::printf("\n--- trace of the partitioned build (10 signatures) ---\n");
  std::printf("ecalls: %llu, of which ecall_bn_sub_part_words: %llu (%.2f%%; paper: 99.5%%)\n",
              static_cast<unsigned long long>(total_ecalls),
              static_cast<unsigned long long>(sub_calls),
              100.0 * static_cast<double>(sub_calls) / static_cast<double>(total_ecalls));
  std::printf("mean bn_sub_part_words duration: %.1f us (paper: ~3 us, 'basically the "
              "transition time')\n",
              sub_mean_ns / 1e3);
  std::printf("ocalls: %llu, %.1f%% shorter than 1 us (paper: 78.65%% < 1 us)\n",
              static_cast<unsigned long long>(total_ocalls),
              total_ocalls == 0 ? 0.0
                                : 100.0 * static_cast<double>(short_ocalls) /
                                      static_cast<double>(total_ocalls));

  perf::Analyzer analyzer(trace);
  analyzer.set_interface(1, sgxsim::edl::parse(kGlamdringEdl));
  const auto report = analyzer.analyze();
  bool sisc = false;
  std::printf("\n--- analyser findings (top 8) ---\n");
  std::size_t shown = 0;
  for (const auto& f : report.findings) {
    if (shown < 8) {
      std::printf("[%zu] %s: %s\n", ++shown, perf::to_string(f.kind), f.subject_name.c_str());
    }
    if (f.subject_name == "ecall_bn_sub_part_words" &&
        (f.kind == perf::FindingKind::kBatchable || f.kind == perf::FindingKind::kShortCalls)) {
      sisc = true;
    }
  }
  std::printf("\nSISC on ecall_bn_sub_part_words detected: %s (drives the 2.16x optimisation)\n",
              sisc ? "YES" : "NO");

  // --- working set ------------------------------------------------------------------
  {
    sgxsim::Urts ws_urts;
    SigningBenchmark partitioned(ws_urts, Variant::kPartitioned);
    perf::WorkingSetEstimator ws(ws_urts.enclave(partitioned.enclave_id()));
    ws.start();
    (void)partitioned.sign(0);
    const auto startup = ws.checkpoint();
    for (std::uint64_t i = 1; i < 6; ++i) (void)partitioned.sign(i);
    const auto steady = ws.accessed_pages();
    ws.stop();
    std::printf("\nworking set: %zu pages after start-up, %zu during the benchmark "
                "(paper: 61 / 32)\n",
                startup.size(), steady.size());
    json.metric("working_set_startup", static_cast<double>(startup.size()), "pages");
    json.metric("working_set_steady", static_cast<double>(steady.size()), "pages");
  }
  json.metric("sisc_detected", sisc ? 1.0 : 0.0, "bool");
  if (!json.write()) return 1;
  return sisc ? 0 : 1;
}
