// E11 — §2.3.3 / §3.5 / §4.1.5 ablation: EPC oversubscription and paging.
//
// An enclave sweeps a data set sized at several fractions of a (shrunken)
// EPC.  Reports page-in/out counts and throughput per sweep — the cliff once
// the working set exceeds the EPC — and demonstrates the pre-loading
// mitigation (touch the pages *before* the ecall, §3.5 (ii)): page faults
// then happen outside enclave execution, avoiding the in-enclave AEX+fault
// path.  Also shows the logger's paging trace identifying the victim pages.
#include <cstdio>

#include "bench_json.hpp"
#include "perf/analyzer.hpp"
#include "perf/logger.hpp"
#include "sgxsim/runtime.hpp"

namespace {

using namespace sgxsim;

constexpr const char* kEdl = R"(
enclave {
  trusted {
    public int ecall_sweep(void);
  };
  untrusted {};
};
)";

constexpr std::size_t kEpcPages = 512;  // shrunken EPC so the sweep is fast

struct SweepResult {
  std::uint64_t page_ins = 0;
  std::uint64_t page_outs = 0;
  double virtual_ms = 0;
};

SweepResult run_sweep(double epc_fraction, bool preload, int sweeps = 4,
                      bool flush_first = false) {
  Urts urts(CostModel::preset(PatchLevel::kUnpatched), kEpcPages);
  const auto data_pages = static_cast<std::size_t>(static_cast<double>(kEpcPages) * epc_fraction);

  EnclaveConfig config;
  config.code_pages = 8;
  config.heap_pages = data_pages + 4;
  config.stack_pages = 2;
  config.tcs_count = 1;
  const EnclaveId eid = urts.create_enclave(std::move(config), edl::parse(kEdl));
  Enclave& enclave = urts.enclave(eid);
  OcallTable table = make_ocall_table({});

  enclave.register_ecall("ecall_sweep", [data_pages](TrustedContext& ctx, void*) {
    const auto base = ctx.enclave().heap_base_page() * kPageSize;
    for (std::size_t p = 0; p < data_pages; ++p) {
      ctx.touch(base + p * kPageSize, 64, MemAccess::kWrite);
      ctx.work(500);  // per-page computation
    }
    return SgxStatus::kSuccess;
  });

  if (flush_first) {
    // A noisy neighbour fills the shared EPC and evicts our pages — the
    // multi-tenant cloud scenario of §3.5 where pre-loading pays off.
    EnclaveConfig flusher;
    flusher.code_pages = 8;
    flusher.heap_pages = kEpcPages;
    flusher.stack_pages = 2;
    flusher.tcs_count = 1;
    const EnclaveId noisy = urts.create_enclave(std::move(flusher), edl::parse(kEdl));
    urts.destroy_enclave(noisy);
  }

  const auto ins_before = urts.driver().page_in_count();
  const auto outs_before = urts.driver().page_out_count();
  const auto t0 = urts.clock().now();
  for (int s = 0; s < sweeps; ++s) {
    if (preload) {
      // §3.5 (ii): fault the pages in *before* the ecall, from outside.
      for (std::size_t p = 0; p < data_pages; ++p) {
        urts.driver().ensure_resident(eid, enclave.heap_base_page() + p);
      }
    }
    urts.sgx_ecall(eid, 0, &table, nullptr);
  }
  SweepResult result;
  result.page_ins = urts.driver().page_in_count() - ins_before;
  result.page_outs = urts.driver().page_out_count() - outs_before;
  result.virtual_ms = static_cast<double>(urts.clock().now() - t0) / 1e6;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_flag(argc, argv);
  bench::JsonReport json("paging", smoke);
  std::printf("=== E11: EPC oversubscription / paging ablation (paper §2.3.3, §3.5) ===\n");
  std::printf("EPC shrunk to %zu pages; 4 sweeps over a data set of varying size\n\n",
              kEpcPages);

  std::printf("%-12s %12s %12s %14s %16s\n", "data/EPC", "page-ins", "page-outs", "virt ms",
              "ms per sweep");
  for (const double fraction : {0.25, 0.5, 0.8, 1.2, 2.0, 4.0}) {
    const SweepResult r = run_sweep(fraction, /*preload=*/false);
    std::printf("%10.2fx %12llu %12llu %14.2f %16.2f\n", fraction,
                static_cast<unsigned long long>(r.page_ins),
                static_cast<unsigned long long>(r.page_outs), r.virtual_ms, r.virtual_ms / 4);
    char key[48];
    std::snprintf(key, sizeof key, "sweep_ms.%.2fx_epc", fraction);
    json.metric(key, r.virtual_ms / 4, "ms");
    std::snprintf(key, sizeof key, "page_ins.%.2fx_epc", fraction);
    json.metric(key, static_cast<double>(r.page_ins), "pages");
  }

  std::printf("\npre-loading mitigation, data set at 0.9x EPC, single cold sweep "
              "(§3.5 (ii): fault pages in before the ecall):\n");
  const SweepResult naive = run_sweep(0.9, false, /*sweeps=*/1, /*flush_first=*/true);
  const SweepResult preloaded = run_sweep(0.9, true, /*sweeps=*/1, /*flush_first=*/true);
  std::printf("  naive:     %llu in-enclave faults (each with an AEX), %.2f ms\n",
              static_cast<unsigned long long>(naive.page_ins), naive.virtual_ms);
  std::printf("  preloaded: %llu faults taken outside the enclave, %.2f ms\n",
              static_cast<unsigned long long>(preloaded.page_ins), preloaded.virtual_ms);
  json.metric("cold_sweep_naive_ms", naive.virtual_ms, "ms");
  json.metric("cold_sweep_preloaded_ms", preloaded.virtual_ms, "ms");
  std::printf("  (beyond 1x EPC pre-loading cannot help: the set does not fit and the sweep "
              "evicts its own pre-loaded pages)\n");

  // The logger's paging trace + the analyser's paging finding.
  Urts urts(CostModel::preset(PatchLevel::kUnpatched), kEpcPages);
  tracedb::TraceDatabase trace;
  perf::Logger logger(trace);
  logger.attach(urts);
  {
    EnclaveConfig config;
    config.code_pages = 8;
    config.heap_pages = kEpcPages;  // guaranteed oversubscription
    config.stack_pages = 2;
    config.tcs_count = 1;
    const EnclaveId eid = urts.create_enclave(std::move(config), edl::parse(kEdl));
    Enclave& enclave = urts.enclave(eid);
    OcallTable table = make_ocall_table({});
    enclave.register_ecall("ecall_sweep", [&](TrustedContext& ctx, void*) {
      const auto base = ctx.enclave().heap_base_page() * kPageSize;
      for (std::size_t p = 0; p < kEpcPages; ++p) ctx.touch(base + p * kPageSize, 64,
                                                            MemAccess::kWrite);
      return SgxStatus::kSuccess;
    });
    urts.sgx_ecall(eid, 0, &table, nullptr);
    urts.sgx_ecall(eid, 0, &table, nullptr);
  }
  logger.detach();

  std::printf("\nlogger captured %zu paging events (kprobe trace, §4.1.5)\n",
              trace.paging().size());
  json.metric("traced_paging_events", static_cast<double>(trace.paging().size()), "events");
  if (smoke && !json.write()) return 1;
  const auto report = perf::Analyzer(trace).analyze();
  for (const auto& f : report.findings) {
    if (f.kind == perf::FindingKind::kPaging) {
      std::printf("analyser: %s — %s\n", perf::to_string(f.kind), f.detail.c_str());
      for (const auto& r : f.recommendations) std::printf("  -> %s\n", perf::to_string(r.action));
      return 0;
    }
  }
  std::printf("analyser did not flag paging (unexpected)\n");
  return 1;
}
