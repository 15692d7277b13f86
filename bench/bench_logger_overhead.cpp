// E2 — Table 2: performance overhead of the sgx-perf event logger.
//
// Three experiments, as in §5.1:
//   (1) a single empty ecall, executed n times;
//   (2) an ecall performing one ocall, executed n times;
//   (3) a long ecall (k loop iterations), with AEX counting / tracing.
// Reported: mean virtual time per call, native vs with-logger, and the
// derived per-call / per-AEX overheads next to the paper's numbers.  The
// logger's real recording cost is wallbench's
// `perf.logger.record_ns_per_event`.
#include <cstdio>

#include "bench_json.hpp"
#include "perf/logger.hpp"
#include "sgxsim/runtime.hpp"

namespace {

using namespace sgxsim;

constexpr const char* kEdl = R"(
enclave {
  trusted {
    public int ecall_empty(void);
    public int ecall_with_ocall(void);
    public int ecall_long(void);
  };
  untrusted { void ocall_empty(void); };
};
)";

SgxStatus empty_ocall(void*) { return SgxStatus::kSuccess; }

struct Machine {
  Machine() {
    eid = urts.create_enclave({}, edl::parse(kEdl));
    table = make_ocall_table({&empty_ocall});
    Enclave& e = urts.enclave(eid);
    e.register_ecall("ecall_empty", [](TrustedContext&, void*) { return SgxStatus::kSuccess; });
    e.register_ecall("ecall_with_ocall",
                     [](TrustedContext& ctx, void*) { return ctx.ocall(0, nullptr); });
    e.register_ecall("ecall_long", [](TrustedContext& ctx, void*) {
      // k = 1,000,000 iterations "doing nothing" — ~45 ns each.
      for (int i = 0; i < 1'000'000; ++i) ctx.work(45);
      return SgxStatus::kSuccess;
    });
  }
  Urts urts;
  EnclaveId eid = 0;
  OcallTable table;
};

/// Mean virtual ns of `n` invocations of ecall `id` (after `warmup` calls).
double mean_call_ns(Machine& m, CallId id, int n, int warmup) {
  for (int i = 0; i < warmup; ++i) m.urts.sgx_ecall(m.eid, id, &m.table, nullptr);
  const auto t0 = m.urts.clock().now();
  for (int i = 0; i < n; ++i) m.urts.sgx_ecall(m.eid, id, &m.table, nullptr);
  return static_cast<double>(m.urts.clock().now() - t0) / n;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_flag(argc, argv);
  bench::JsonReport json("logger_overhead", smoke);
  // The paper uses n = 1,000,000 for (1)/(2); virtual time is deterministic,
  // so a smaller n gives identical means while keeping real time low.
  const int kN = smoke ? 2'000 : 20'000;
  const int kWarmup = smoke ? 100 : 1'000;

  std::printf("=== E2: logger overhead (paper Table 2) ===\n\n");

  double native1 = 0;
  double native2 = 0;
  {
    Machine m;
    native1 = mean_call_ns(m, 0, kN, kWarmup);
    native2 = mean_call_ns(m, 1, kN, kWarmup);
  }
  double logged1 = 0;
  double logged2 = 0;
  {
    Machine m;
    tracedb::TraceDatabase db;
    perf::LoggerConfig config;
    config.count_aex = false;  // experiments (1)/(2) trace calls only
    config.trace_paging = false;
    perf::Logger logger(db, config);
    logger.attach(m.urts);
    logged1 = mean_call_ns(m, 0, kN, kWarmup);
    logged2 = mean_call_ns(m, 1, kN, kWarmup);
    logger.detach();
  }

  std::printf("%-22s %18s %18s\n", "", "(1) single ecall", "(2) ecall + ocall");
  std::printf("%-22s %15.0f ns %15.0f ns   (paper: 4,205 / 8,013)\n", "native", native1,
              native2);
  std::printf("%-22s %15.0f ns %15.0f ns   (paper: 5,572 / 10,699)\n", "with logging", logged1,
              logged2);
  std::printf("%-22s %15.0f ns %15.0f ns   (paper: ~1,366 / ~2,686)\n", "overhead",
              logged1 - native1, logged2 - native2);
  std::printf("%-22s %18s %15.0f ns   (paper: ~1,320)\n", "ocall only", "-",
              (logged2 - native2) - (logged1 - native1));
  json.metric("ecall_native_ns", native1, "ns");
  json.metric("ecall_logged_ns", logged1, "ns");
  json.metric("ecall_overhead_ns", logged1 - native1, "ns");
  json.metric("ecall_ocall_native_ns", native2, "ns");
  json.metric("ecall_ocall_logged_ns", logged2, "ns");
  json.metric("ocall_overhead_ns", (logged2 - native2) - (logged1 - native1), "ns");

  // --- experiment (3): long ecall with AEX counting / tracing --------------
  const int kLongN = smoke ? 8 : 40;  // paper: n = 1,000 reps of a ~45 ms call
  struct LongResult {
    double per_call_us = 0;
    double aex_per_call = 0;
  };
  const auto run_long = [&](bool attach, bool trace_aex) {
    Machine m;
    tracedb::TraceDatabase db;
    perf::LoggerConfig config;
    config.count_aex = !trace_aex;
    config.trace_aex = trace_aex;
    config.trace_paging = false;
    perf::Logger logger(db, config);
    if (attach) logger.attach(m.urts);
    const auto t0 = m.urts.clock().now();
    for (int i = 0; i < kLongN; ++i) m.urts.sgx_ecall(m.eid, 2, &m.table, nullptr);
    const double per_call =
        static_cast<double>(m.urts.clock().now() - t0) / kLongN / 1e3;  // us
    LongResult result;
    result.per_call_us = per_call;
    if (attach) {
      logger.detach();  // merges the shards: db is readable only afterwards
      std::uint64_t aex = 0;
      for (const auto& c : db.calls()) aex += c.aex_count;
      result.aex_per_call = static_cast<double>(aex) / kLongN;
    }
    return result;
  };

  // "with Logging" in Table 2's experiment (3) means calls traced but AEXs
  // not instrumented; we approximate by counting AEXs via a plain hook.
  double plain_long_us = 0;
  {
    Machine m;
    tracedb::TraceDatabase db;
    perf::LoggerConfig config;
    config.count_aex = false;
    config.trace_paging = false;
    perf::Logger logger(db, config);
    logger.attach(m.urts);
    const auto t0 = m.urts.clock().now();
    for (int i = 0; i < kLongN; ++i) m.urts.sgx_ecall(m.eid, 2, &m.table, nullptr);
    plain_long_us = static_cast<double>(m.urts.clock().now() - t0) / kLongN / 1e3;
    logger.detach();
  }
  const LongResult counting = run_long(true, false);
  const LongResult tracing = run_long(true, true);

  std::printf("\n(3) long ecall (k=1,000,000 empty iterations)\n");
  std::printf("%-22s %14s %12s\n", "", "exec time", "AEX count");
  std::printf("%-22s %11.0f us %12s   (paper: 45,377 us)\n", "with logging", plain_long_us, "-");
  std::printf("%-22s %11.0f us %12.2f   (paper: 45,390 us / 11.51)\n", "+ AEX counting",
              counting.per_call_us, counting.aex_per_call);
  std::printf("%-22s %11.0f us %12.2f   (paper: 45,390 us / 11.56)\n", "+ AEX tracing",
              tracing.per_call_us, tracing.aex_per_call);
  if (counting.aex_per_call > 0) {
    std::printf("%-22s %11.0f ns per AEX   (paper: ~1,076)\n", "counting overhead",
                (counting.per_call_us - plain_long_us) * 1e3 / counting.aex_per_call);
    std::printf("%-22s %11.0f ns per AEX   (paper: ~1,118)\n", "tracing overhead",
                (tracing.per_call_us - plain_long_us) * 1e3 / tracing.aex_per_call);
  }
  json.metric("long_ecall_logged_us", plain_long_us, "us");
  json.metric("long_ecall_aex_counting_us", counting.per_call_us, "us");
  json.metric("long_ecall_aex_tracing_us", tracing.per_call_us, "us");
  json.metric("aex_per_long_ecall", tracing.aex_per_call);

  return smoke && !json.write() ? 1 : 0;
}
