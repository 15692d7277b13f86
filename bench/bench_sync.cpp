// E10 — §2.3.2 / §3.4 ablation: in-enclave synchronisation strategies.
//
// A contended counter protected by (a) the SDK default mutex (sleep/wake
// ocalls on contention) and (b) the hybrid spin-then-sleep mutex sgx-perf
// recommends for short critical sections.  Reports sync-ocall counts per
// operation for several spin budgets.  The workers free-run on OS threads,
// so the counts depend on scheduling: the bench prints them and writes no
// JSON (`--smoke` only shrinks the run).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "sgxsim/runtime.hpp"

namespace {

using namespace sgxsim;

constexpr const char* kEdl = R"(
enclave {
  trusted { public int ecall_hammer(void); };
  untrusted {};
};
)";

struct SyncStats {
  std::atomic<std::uint64_t> sleeps{0};
  std::atomic<std::uint64_t> wakes{0};
};
SyncStats* g_stats = nullptr;
OcallFn g_real_sleep = nullptr;
OcallFn g_real_wake = nullptr;

SgxStatus counting_sleep(void* ms) {
  g_stats->sleeps.fetch_add(1, std::memory_order_relaxed);
  return g_real_sleep(ms);
}
SgxStatus counting_wake(void* ms) {
  g_stats->wakes.fetch_add(1, std::memory_order_relaxed);
  return g_real_wake(ms);
}

struct Run {
  std::uint64_t sleeps = 0;
  std::uint64_t wakes = 0;
};

Run run_contended(MutexKind kind, std::uint32_t spin_limit, int threads, int ops_per_thread,
                  support::Nanoseconds critical_ns) {
  Urts urts;
  EnclaveConfig config;
  config.tcs_count = static_cast<std::size_t>(threads) + 2;
  const EnclaveId eid = urts.create_enclave(std::move(config), edl::parse(kEdl));
  OcallTable table = make_ocall_table({});
  SyncStats stats;
  g_stats = &stats;
  g_real_sleep = table.entries[table.sync_base + 0];
  g_real_wake = table.entries[table.sync_base + 1];
  table.entries[table.sync_base + 0] = &counting_sleep;
  table.entries[table.sync_base + 1] = &counting_wake;

  Enclave& enclave = urts.enclave(eid);
  const MutexId mutex = enclave.create_mutex(kind, spin_limit);
  std::atomic<std::uint64_t> counter{0};
  enclave.register_ecall("ecall_hammer",
                         [mutex, &counter, ops_per_thread, critical_ns](TrustedContext& ctx, void*) {
    for (int i = 0; i < ops_per_thread; ++i) {
      if (auto st = ctx.mutex_lock(mutex); st != SgxStatus::kSuccess) return st;
      counter.fetch_add(1, std::memory_order_relaxed);
      ctx.work(critical_ns);
      // The critical section also takes real time (and yields the CPU), so
      // OS threads genuinely overlap and contend even on a single core.
      if (i % 8 == 0) std::this_thread::sleep_for(std::chrono::microseconds(30));
      if (auto st = ctx.mutex_unlock(mutex); st != SgxStatus::kSuccess) return st;
    }
    return SgxStatus::kSuccess;
  });

  // Rendezvous so the workers genuinely overlap.
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      ++ready;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      urts.sgx_ecall(eid, 0, &table, nullptr);
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();

  Run run;
  run.sleeps = stats.sleeps.load();
  run.wakes = stats.wakes.load();
  g_stats = nullptr;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_flag(argc, argv);
  std::printf("=== E10: in-enclave synchronisation ablation (paper §2.3.2 / §3.4) ===\n\n");
  constexpr int kThreads = 4;
  const int kOps = smoke ? 100 : 400;

  std::printf("contended counter: %d threads x %d ops, 2 us critical section\n\n", kThreads,
              kOps);
  std::printf("%-28s %10s %10s %16s\n", "mutex", "sleeps", "wakes", "sync ocalls/op");
  const auto print_row = [&](const char* label, const Run& run) {
    std::printf("%-28s %10llu %10llu %16.4f\n", label,
                static_cast<unsigned long long>(run.sleeps),
                static_cast<unsigned long long>(run.wakes),
                static_cast<double>(run.sleeps + run.wakes) / (kThreads * kOps));
  };
  print_row("SDK default (sleep ocalls)",
            run_contended(MutexKind::kSdkDefault, 0, kThreads, kOps, 2'000));
  for (const std::uint32_t spin : {64u, 512u, 100'000u}) {
    char label[64];
    std::snprintf(label, sizeof(label), "hybrid spin (limit %u)", spin);
    print_row(label, run_contended(MutexKind::kHybridSpin, spin, kThreads, kOps, 2'000));
  }
  std::printf("\nthe hybrid lock eliminates the short wake-up ocalls (<10 us) the analyser "
              "flags as SSC\n\n");
  return 0;
}
