// Extension bench — switchless calls (SDK 2.x / HotCalls-style).
//
// §2.3 and §6 of the paper point at asynchronous/switchless calls
// (SCONE, HotCalls) as the systems-level fix for transition-bound
// workloads.  This ablation runs the same short-ecall storm through (a)
// regular transitions and (b) the switchless worker path enabled via the
// EDL's `transition_using_threads`, at all three patch levels — showing
// that the win grows exactly where sgx-perf's SISC findings hurt the most,
// and that the call remains visible to the profiler either way.
#include <cstdio>

#include "bench_json.hpp"
#include "perf/logger.hpp"
#include "sgxsim/runtime.hpp"

namespace {

using namespace sgxsim;

constexpr const char* kEdl = R"(
enclave {
  trusted {
    public int ecall_fast(uint64_t v) transition_using_threads;
    public int ecall_regular(uint64_t v);
  };
  untrusted {};
};
)";

double storm_ns_per_call(Urts& urts, EnclaveId eid, OcallTable& table, CallId id, int calls) {
  std::uint64_t v = 0;
  const auto t0 = urts.clock().now();
  for (int i = 0; i < calls; ++i) urts.sgx_ecall(eid, id, &table, &v);
  return static_cast<double>(urts.clock().now() - t0) / calls;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_flag(argc, argv);
  bench::JsonReport json("switchless", smoke);
  const int kCalls = smoke ? 5'000 : 50'000;
  std::printf("=== extension: switchless calls vs regular transitions ===\n");
  std::printf("the remedy §2.3/§6 cites (SCONE async calls, HotCalls) for SISC-bound "
              "interfaces; %d short ecalls (~150 ns of work each)\n\n",
              kCalls);

  std::printf("%-16s %16s %16s %10s\n", "patch level", "regular[ns]", "switchless[ns]",
              "speedup");
  for (const auto lvl : {PatchLevel::kUnpatched, PatchLevel::kSpectre,
                         PatchLevel::kSpectreL1tf}) {
    Urts urts(CostModel::preset(lvl));
    const EnclaveId eid = urts.create_enclave({}, edl::parse(kEdl));
    Enclave& enclave = urts.enclave(eid);
    const auto work = [](TrustedContext& ctx, void*) {
      ctx.work(150);
      return SgxStatus::kSuccess;
    };
    enclave.register_ecall("ecall_fast", work);
    enclave.register_ecall("ecall_regular", work);
    OcallTable table = make_ocall_table({});
    urts.set_switchless_workers(eid, 2);

    const double regular = storm_ns_per_call(urts, eid, table, 1, kCalls);
    const double switchless = storm_ns_per_call(urts, eid, table, 0, kCalls);
    std::printf("%-16s %16.0f %16.0f %9.1fx\n", to_string(lvl), regular, switchless,
                regular / switchless);
    const std::string lvl_name = to_string(lvl);
    json.metric("regular_ns." + lvl_name, regular, "ns");
    json.metric("switchless_ns." + lvl_name, switchless, "ns");
  }

  // The profiler still sees switchless calls (they go through sgx_ecall, the
  // interposition point) — their short duration now reflects the cheap path.
  Urts urts;
  const EnclaveId eid = urts.create_enclave({}, edl::parse(kEdl));
  urts.enclave(eid).register_ecall("ecall_fast", [](TrustedContext& ctx, void*) {
    ctx.work(150);
    return SgxStatus::kSuccess;
  });
  OcallTable table = make_ocall_table({});
  urts.set_switchless_workers(eid, 2);
  tracedb::TraceDatabase trace;
  perf::Logger logger(trace);
  logger.attach(urts);
  std::uint64_t v = 0;
  for (int i = 0; i < 100; ++i) urts.sgx_ecall(eid, 0, &table, &v);
  logger.detach();
  double mean = 0;
  for (const auto& c : trace.calls()) mean += static_cast<double>(c.duration());
  mean /= static_cast<double>(trace.calls().size());
  std::printf("\nwith sgx-perf attached, the switchless ecall still appears in the trace: "
              "%zu records, mean %.0f ns\n",
              trace.calls().size(), mean);
  std::printf("(a fixed SISC finding would show exactly this before/after signature)\n");
  json.metric("traced_switchless_mean_ns", mean, "ns");
  if (smoke && !json.write()) return 1;
  return 0;
}
