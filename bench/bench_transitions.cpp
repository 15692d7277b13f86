// E1 — §2.3.1 transition costs across microcode patch levels.
//
// Reproduces the in-text table: one EENTER..EEXIT round trip costs
// ~5,850 / ~10,170 / ~13,100 cycles (~2,130 / ~3,850 / ~4,890 ns) on an
// unpatched / Spectre-patched / Spectre+L1TF-patched machine, plus the full
// SDK ecall and ecall+ocall costs the rest of the evaluation builds on.
#include <cstdio>
#include <string>

#include "bench_json.hpp"
#include "sgxsim/runtime.hpp"
#include "support/clock.hpp"

namespace {

using namespace sgxsim;

constexpr const char* kEdl = R"(
enclave {
  trusted {
    public int ecall_empty(void);
    public int ecall_with_ocall(void);
  };
  untrusted { void ocall_empty(void); };
};
)";

SgxStatus empty_ocall(void*) { return SgxStatus::kSuccess; }

struct Machine {
  explicit Machine(PatchLevel lvl) : urts(CostModel::preset(lvl)) {
    eid = urts.create_enclave({}, edl::parse(kEdl));
    table = make_ocall_table({&empty_ocall});
    Enclave& e = urts.enclave(eid);
    e.register_ecall("ecall_empty", [](TrustedContext&, void*) { return SgxStatus::kSuccess; });
    e.register_ecall("ecall_with_ocall",
                     [](TrustedContext& ctx, void*) { return ctx.ocall(0, nullptr); });
  }
  Urts urts;
  EnclaveId eid = 0;
  OcallTable table;
};

void print_paper_table(bench::JsonReport& report) {
  const support::CycleConverter cycles(2.75);
  std::printf("\n=== E1: enclave transition costs vs patch level (paper §2.3.1) ===\n");
  std::printf("paper: ~5,850 cy (~2,130 ns) / ~10,170 cy (~3,850 ns) / ~13,100 cy (~4,890 ns)\n\n");
  std::printf("%-18s %18s %14s %16s %20s\n", "patch level", "EENTER..EEXIT[ns]", "cycles@2.75G",
              "full ecall[ns]", "ecall+ocall[ns]");
  for (const PatchLevel lvl :
       {PatchLevel::kUnpatched, PatchLevel::kSpectre, PatchLevel::kSpectreL1tf}) {
    Machine m(lvl);
    const auto t0 = m.urts.clock().now();
    m.urts.sgx_ecall(m.eid, 0, &m.table, nullptr);
    const auto ecall_ns = m.urts.clock().now() - t0;
    const auto t1 = m.urts.clock().now();
    m.urts.sgx_ecall(m.eid, 1, &m.table, nullptr);
    const auto both_ns = m.urts.clock().now() - t1;
    const auto round_trip = m.urts.cost().transition_round_trip_ns();
    std::printf("%-18s %18llu %14llu %16llu %20llu\n", to_string(lvl),
                static_cast<unsigned long long>(round_trip),
                static_cast<unsigned long long>(cycles.ns_to_cycles(round_trip)),
                static_cast<unsigned long long>(ecall_ns),
                static_cast<unsigned long long>(both_ns));
    const std::string lvl_name = to_string(lvl);
    report.metric("round_trip_ns." + lvl_name, static_cast<double>(round_trip), "ns");
    report.metric("ecall_ns." + lvl_name, static_cast<double>(ecall_ns), "ns");
    report.metric("ecall_ocall_ns." + lvl_name, static_cast<double>(both_ns), "ns");
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_flag(argc, argv);
  bench::JsonReport report("transitions", smoke);
  print_paper_table(report);
  return smoke && !report.write() ? 1 : 0;
}
