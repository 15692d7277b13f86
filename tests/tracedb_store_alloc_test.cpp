// Allocation-count lock for the SGXSTORE event load.
//
// Loading a store's event log must cost the same number of heap allocations
// whether the rows sit in one chunk or in thousands: the reader sizes each
// event table once from the chunk directory.  A per-chunk reserve would
// reallocate every table once per chunk (O(N^2) copying), and would still end
// with capacity() == size(), so this binary counts allocations instead.  It
// replaces the global operator new, which is why it is a binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>

#include "tracedb/database.hpp"
#include "tracedb/store/store.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

// Out of line, so the compiler never pairs an inlined free() with a
// new-expression and warns about a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace fs = std::filesystem;
using tracedb::CallRecord;
using tracedb::CallType;
using tracedb::TraceDatabase;

constexpr std::uint64_t kCalls = 4'096;

void start_counting() {
  g_allocations.store(0);
  g_counting.store(true);
}

/// Allocations since start_counting().
std::size_t stop_counting() {
  g_counting.store(false);
  return g_allocations.load();
}

/// The two counts may differ by a few allocations, never by one per chunk.
void expect_close(std::size_t many_chunks, std::size_t one_chunk) {
  const std::size_t diff =
      many_chunks > one_chunk ? many_chunks - one_chunk : one_chunk - many_chunks;
  EXPECT_LE(diff, 16u) << many_chunks << " allocations with many chunks, " << one_chunk
                       << " with one";
}

/// One call per microsecond, each with an AEX, a paging event and a sync
/// event inside it, so every event table spans every chunk.
TraceDatabase make_db() {
  TraceDatabase db;
  db.add_enclave({1, "worker", 5, 0, 4, 1 << 20});
  db.add_call_name({1, CallType::kEcall, 7, "process"});
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    const tracedb::Nanoseconds base = 1'000 * (i + 1);
    CallRecord call;
    call.type = CallType::kEcall;
    call.thread_id = static_cast<tracedb::ThreadId>(i % 4);
    call.enclave_id = 1;
    call.call_id = 7;
    call.start_ns = base;
    call.end_ns = base + 900;
    const tracedb::CallIndex index = db.add_call(call);
    db.add_aex({call.thread_id, 1, base + 50, index, tracedb::AexCause::kInterrupt});
    db.add_paging({1, i, tracedb::PageDirection::kPageOut, base + 60});
    db.add_sync({tracedb::SyncKind::kSleep, call.thread_id, 0, 1, base + 70});
  }
  return db;
}

/// A packed store directory, removed again on destruction.
struct PackedStore {
  PackedStore(const TraceDatabase& db, const std::string& name, std::size_t chunk_calls)
      : path((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path);
    tracedb::store::pack(db, path, {.chunk_calls = chunk_calls});
  }
  ~PackedStore() { fs::remove_all(path); }
  const std::string path;
};

TEST(StoreLoadAllocations, FullLoadDoesNotGrowWithChunkCount) {
  const TraceDatabase db = make_db();
  const PackedStore many(db, "store_alloc_many.store", 1);
  const PackedStore one(db, "store_alloc_one.store", kCalls);

  std::size_t counts[2];
  const std::string* paths[2] = {&many.path, &one.path};
  for (int i = 0; i < 2; ++i) {
    tracedb::store::StoreReader reader(*paths[i]);
    ASSERT_EQ(reader.chunk_directory().size(), i == 0 ? kCalls : 1u);
    start_counting();
    const TraceDatabase back =
        reader.load(tracedb::store::kSectionMeta | tracedb::store::kSectionEvents);
    counts[i] = stop_counting();
    EXPECT_EQ(back.calls().size(), kCalls);
    EXPECT_EQ(back.syncs().size(), kCalls);
  }
  // One reserve per table either way; a reserve per chunk would add ~4 x 4,096.
  expect_close(counts[0], counts[1]);
}

TEST(StoreLoadAllocations, RangeLoadDoesNotGrowWithChunkCount) {
  const TraceDatabase db = make_db();
  const PackedStore many(db, "store_alloc_range_many.store", 1);
  const PackedStore one(db, "store_alloc_range_one.store", kCalls);

  std::size_t counts[2];
  const std::string* paths[2] = {&many.path, &one.path};
  for (int i = 0; i < 2; ++i) {
    tracedb::store::StoreReader reader(*paths[i]);
    TraceDatabase window = reader.load(tracedb::store::kSectionMeta);
    // [1 ms, 3 ms] covers the 2,001 one-call chunks of the calls that start
    // in it, or all of the single chunk.
    start_counting();
    reader.load_events_overlapping(window, 1'000'000, 3'000'000);
    counts[i] = stop_counting();
    EXPECT_EQ(window.calls().size(), i == 0 ? 2'001u : kCalls);
  }
  expect_close(counts[0], counts[1]);
}

}  // namespace
