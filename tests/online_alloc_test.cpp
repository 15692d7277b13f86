// Live-allocation lock for the online analyser's per-thread state.
//
// A long `sgxperf monitor` run feeds the analyser an unbounded stream, so its
// memory must stay flat once every site has been seen.  Each parent instance
// that has a nested child gets an Eq. 3 same-key entry (child type, parent
// start) and an Eq. 2 pending bucket; both must go when the parent completes,
// because per-thread stream order means no child can complete after it.
// This binary counts net live allocations (news minus deletes), so it
// replaces the global operator new and stands alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "perf/online.hpp"
#include "perf/stream.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_live{0};

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) g_live.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

// Out of line, so the compiler never pairs an inlined free() with a
// new-expression and warns about a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p != nullptr && g_counting.load(std::memory_order_relaxed)) {
    g_live.fetch_sub(1, std::memory_order_relaxed);
  }
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace {

using perf::StreamEvent;
using tracedb::CallType;

/// One ecall instance with one nested ocall, in stream order: the child's
/// completion first, then the parent's.  Each pair starts 1 µs after the last.
void feed_pair(perf::OnlineAnalyzer& online, std::uint64_t i) {
  const std::uint64_t t = 1'000 * (i + 1);
  StreamEvent child;
  child.kind = StreamEvent::Kind::kCall;
  child.call_type = CallType::kOcall;
  child.enclave_id = 1;
  child.call_id = 3;
  child.start_ns = t + 100;
  child.end_ns = t + 200;
  child.parent_valid = true;
  child.parent_type = CallType::kEcall;
  child.parent_call_id = 7;
  child.parent_start_ns = t;
  online.feed(child);

  StreamEvent parent;
  parent.kind = StreamEvent::Kind::kCall;
  parent.call_type = CallType::kEcall;
  parent.enclave_id = 1;
  parent.call_id = 7;
  parent.start_ns = t;
  parent.end_ns = t + 900;
  online.feed(parent);
}

TEST(OnlineAlloc, ParentChildPairsLeaveLiveAllocationsFlat) {
  perf::OnlineConfig cfg;
  cfg.window_ns = 0;  // no windows: only the per-event state can grow
  perf::OnlineAnalyzer online(cfg);

  constexpr std::uint64_t kWarmup = 1'000;
  constexpr std::uint64_t kPairs = 100'000;
  for (std::uint64_t i = 0; i < kWarmup; ++i) feed_pair(online, i);

  g_live.store(0);
  g_counting.store(true);
  for (std::uint64_t i = kWarmup; i < kWarmup + kPairs; ++i) feed_pair(online, i);
  g_counting.store(false);

  EXPECT_EQ(online.events_seen(), 2 * (kWarmup + kPairs));
  // A few allocations may land once (an alert, a vector growing); one per
  // pair is the same-key map growing without bound.
  EXPECT_LE(g_live.load(), 16) << "net live allocations over " << kPairs << " pairs";
}

}  // namespace
