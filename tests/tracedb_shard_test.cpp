// EventShard / TraceDatabase sharded-writer tests: registration, the
// seal-before-merge lifecycle, out-of-order merge equivalence with a
// sequentially-built database, reference remapping, shard reuse, the
// move-constructor fix and the save() unmerged-events guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "tracedb/database.hpp"

namespace {

using tracedb::AexRecord;
using tracedb::CallIndex;
using tracedb::CallRecord;
using tracedb::CallType;
using tracedb::EventShard;
using tracedb::kNoParent;
using tracedb::kShardSealed;
using tracedb::PagingRecord;
using tracedb::SyncRecord;
using tracedb::TraceDatabase;

CallRecord call(CallType type, tracedb::ThreadId tid, tracedb::Nanoseconds start,
                tracedb::Nanoseconds end, CallIndex parent = kNoParent) {
  CallRecord rec;
  rec.type = type;
  rec.thread_id = tid;
  rec.enclave_id = 1;
  rec.start_ns = start;
  rec.end_ns = end;
  rec.parent = parent;
  return rec;
}

bool same_call(const CallRecord& a, const CallRecord& b) {
  return a.type == b.type && a.kind == b.kind && a.thread_id == b.thread_id &&
         a.enclave_id == b.enclave_id && a.call_id == b.call_id && a.parent == b.parent &&
         a.start_ns == b.start_ns && a.end_ns == b.end_ns && a.aex_count == b.aex_count;
}

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(EventShard, RegistrationAssignsStableIdsAndSlots) {
  TraceDatabase db;
  EXPECT_EQ(db.shard_count(), 0u);
  EventShard& a = db.register_shard(/*owner_thread=*/7, /*owner_slot=*/0);
  EventShard& b = db.register_shard(/*owner_thread=*/9, /*owner_slot=*/1);
  EXPECT_EQ(db.shard_count(), 2u);
  EXPECT_EQ(a.shard_id(), 0u);
  EXPECT_EQ(b.shard_id(), 1u);
  EXPECT_EQ(a.owner_thread(), 7u);
  EXPECT_EQ(b.owner_slot(), 1u);
  // Heap-allocated: registering more shards never moves earlier ones.
  EventShard* a_addr = &a;
  for (int i = 0; i < 32; ++i) db.register_shard(100 + i);
  EXPECT_EQ(&a, a_addr);
}

TEST(EventShard, SealDropsLateEventsAndCountsThem) {
  TraceDatabase db;
  EventShard& s = db.register_shard(1);
  const CallIndex i0 = s.add_call(call(CallType::kEcall, 1, 100, 0));
  EXPECT_EQ(i0, 0);
  EXPECT_FALSE(s.sealed());

  s.seal();
  s.seal();  // idempotent
  EXPECT_TRUE(s.sealed());

  EXPECT_EQ(s.add_call(call(CallType::kEcall, 1, 200, 0)), kShardSealed);
  s.finish_call(i0, 300, 0);  // ignored: sealed
  s.add_aex(AexRecord{});
  s.add_paging(PagingRecord{});
  s.add_sync(SyncRecord{});
  EXPECT_EQ(s.calls().size(), 1u);
  EXPECT_EQ(s.calls()[0].end_ns, 0u);
  EXPECT_EQ(s.events_recorded(), 1u);
  EXPECT_EQ(s.events_dropped(), 5u);
}

TEST(EventShard, FinishCallBoundsChecked) {
  TraceDatabase db;
  EventShard& s = db.register_shard(1);
  s.finish_call(0, 100, 0);    // no such record yet
  s.finish_call(-5, 100, 0);   // nonsense index
  s.set_call_kind(3, tracedb::OcallKind::kSleep);
  EXPECT_EQ(s.events_dropped(), 3u);
}

TEST(TraceDatabaseShards, MergeOfOutOfOrderShardsEqualsSequentialBuild) {
  // Two shards with globally interleaved (but per-shard increasing)
  // timestamps; thread 2's shard even contains a parent reference.
  TraceDatabase sharded;
  EventShard& s1 = sharded.register_shard(1, 0);
  EventShard& s2 = sharded.register_shard(2, 1);

  const CallIndex t1_e0 = s1.add_call(call(CallType::kEcall, 1, 100, 900));
  const CallIndex t2_e0 = s2.add_call(call(CallType::kEcall, 2, 150, 800));
  s2.add_call(call(CallType::kOcall, 2, 300, 400, /*parent=*/t2_e0));
  s1.add_call(call(CallType::kOcall, 1, 500, 600, /*parent=*/t1_e0));

  const auto stats = sharded.merge_shards();
  EXPECT_EQ(stats.merges, 1u);
  EXPECT_EQ(stats.shards_merged, 2u);
  EXPECT_EQ(stats.calls, 4u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_TRUE(s1.sealed());
  EXPECT_TRUE(s1.drained());

  // The same events appended in global time order with global parents.
  TraceDatabase sequential;
  const CallIndex g0 = sequential.add_call(call(CallType::kEcall, 1, 100, 900));
  const CallIndex g1 = sequential.add_call(call(CallType::kEcall, 2, 150, 800));
  sequential.add_call(call(CallType::kOcall, 2, 300, 400, /*parent=*/g1));
  sequential.add_call(call(CallType::kOcall, 1, 500, 600, /*parent=*/g0));

  ASSERT_EQ(sharded.calls().size(), sequential.calls().size());
  for (std::size_t i = 0; i < sequential.calls().size(); ++i) {
    EXPECT_TRUE(same_call(sharded.calls()[i], sequential.calls()[i])) << "record " << i;
  }
  // Timestamps are globally sorted after the merge.
  for (std::size_t i = 1; i < sharded.calls().size(); ++i) {
    EXPECT_GE(sharded.calls()[i].start_ns, sharded.calls()[i - 1].start_ns);
  }
}

TEST(TraceDatabaseShards, MergeRemapsAexDuringCallReferences) {
  TraceDatabase db;
  EventShard& s1 = db.register_shard(1);
  EventShard& s2 = db.register_shard(2);

  // s2's ecall starts first, so s1's records shift right after the merge.
  const CallIndex local = s1.add_call(call(CallType::kEcall, 1, 200, 900));
  s2.add_call(call(CallType::kEcall, 2, 100, 150));
  AexRecord aex;
  aex.thread_id = 1;
  aex.enclave_id = 1;
  aex.timestamp_ns = 500;
  aex.during_call = local;  // shard-local
  s1.add_aex(aex);

  db.merge_shards();
  ASSERT_EQ(db.calls().size(), 2u);
  ASSERT_EQ(db.aexs().size(), 1u);
  EXPECT_EQ(db.calls()[1].thread_id, 1u);  // s1's ecall sorted second
  EXPECT_EQ(db.aexs()[0].during_call, 1);  // remapped to its global index
}

TEST(TraceDatabaseShards, MergeSortsPagingAndSyncByTimestamp) {
  TraceDatabase db;
  EventShard& s1 = db.register_shard(1);
  EventShard& s2 = db.register_shard(2);
  PagingRecord p;
  p.timestamp_ns = 300;
  s1.add_paging(p);
  p.timestamp_ns = 100;
  s2.add_paging(p);
  SyncRecord y;
  y.timestamp_ns = 50;
  s1.add_sync(y);
  y.timestamp_ns = 20;
  s2.add_sync(y);

  db.merge_shards();
  ASSERT_EQ(db.paging().size(), 2u);
  EXPECT_EQ(db.paging()[0].timestamp_ns, 100u);
  EXPECT_EQ(db.paging()[1].timestamp_ns, 300u);
  ASSERT_EQ(db.syncs().size(), 2u);
  EXPECT_EQ(db.syncs()[0].timestamp_ns, 20u);
  EXPECT_EQ(db.syncs()[1].timestamp_ns, 50u);
}

TEST(TraceDatabaseShards, ReopenedShardsRecordAgainAndMergeAppends) {
  TraceDatabase db;
  EventShard& s = db.register_shard(1);
  s.add_call(call(CallType::kEcall, 1, 100, 200));
  db.merge_shards();
  EXPECT_TRUE(s.drained());

  db.reopen_shards();
  EXPECT_FALSE(s.sealed());
  EXPECT_FALSE(s.drained());
  EXPECT_EQ(s.add_call(call(CallType::kEcall, 1, 300, 400)), 0);  // indices restart

  const auto stats = db.merge_shards();
  EXPECT_EQ(stats.calls, 1u);
  ASSERT_EQ(db.calls().size(), 2u);
  EXPECT_EQ(db.calls()[1].start_ns, 300u);
  EXPECT_EQ(db.merge_stats().merges, 2u);
  EXPECT_EQ(db.merge_stats().calls, 2u);
}

TEST(TraceDatabaseShards, ClearResetsShardsAndStats) {
  TraceDatabase db;
  EventShard& s = db.register_shard(1);
  s.add_call(call(CallType::kEcall, 1, 100, 200));
  db.merge_shards();
  db.clear();
  EXPECT_TRUE(db.calls().empty());
  EXPECT_EQ(db.merge_stats().merges, 0u);
  EXPECT_EQ(db.shard_count(), 1u);  // shards survive, reset in place
  EXPECT_FALSE(s.sealed());
  EXPECT_EQ(s.add_call(call(CallType::kEcall, 1, 300, 400)), 0);
}

TEST(TraceDatabaseShards, MoveConstructorCarriesRecordsAndShards) {
  // Regression for the move ctor that locked only the source's mutex (and
  // predated shards): both sides now lock, and shard state moves along.
  TraceDatabase source;
  EventShard& s = source.register_shard(1);
  s.add_call(call(CallType::kEcall, 1, 100, 200));
  source.merge_shards();
  source.add_call(call(CallType::kEcall, 2, 300, 400));

  TraceDatabase moved(std::move(source));
  ASSERT_EQ(moved.calls().size(), 2u);
  EXPECT_EQ(moved.shard_count(), 1u);
  EXPECT_EQ(moved.merge_stats().merges, 1u);
  // The moved-from database is empty but still usable.
  EXPECT_TRUE(source.calls().empty());      // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(source.shard_count(), 0u);      // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(source.merge_stats().merges, 0u);
}

TEST(TraceDatabaseShards, SaveRefusesUnmergedShardEvents) {
  const std::string path = testing::TempDir() + "/shard_guard.bin";
  TraceDatabase db;
  EventShard& s = db.register_shard(1);
  s.add_call(call(CallType::kEcall, 1, 100, 200));
  EXPECT_THROW(db.save(path), std::logic_error);
  db.merge_shards();
  EXPECT_NO_THROW(db.save(path));
  std::remove(path.c_str());
}

TEST(TraceDatabaseShards, SingleShardSerializesIdenticallyToDirectBuild) {
  // The acceptance bar for the refactor: a single-threaded trace routed
  // through a shard must serialize bit-identically to the direct path.
  const std::string direct_path = testing::TempDir() + "/direct.bin";
  const std::string sharded_path = testing::TempDir() + "/sharded.bin";

  TraceDatabase direct;
  TraceDatabase sharded;
  EventShard& s = sharded.register_shard(1);
  CallIndex parent_direct = kNoParent;
  CallIndex parent_local = kNoParent;
  for (int i = 0; i < 10; ++i) {
    const auto start = static_cast<tracedb::Nanoseconds>(100 * i + 100);
    if (i % 2 == 0) {
      parent_direct = direct.add_call(call(CallType::kEcall, 1, start, start + 50));
      parent_local = s.add_call(call(CallType::kEcall, 1, start, start + 50));
    } else {
      direct.add_call(call(CallType::kOcall, 1, start, start + 50, parent_direct));
      s.add_call(call(CallType::kOcall, 1, start, start + 50, parent_local));
    }
  }
  sharded.merge_shards();
  direct.save(direct_path);
  sharded.save(sharded_path);
  EXPECT_EQ(slurp(direct_path), slurp(sharded_path));
  std::remove(direct_path.c_str());
  std::remove(sharded_path.c_str());
}

// --- one shard in key order: the identity merge ------------------------------

AexRecord aex_at(tracedb::Nanoseconds ts, CallIndex during_call) {
  AexRecord rec;
  rec.thread_id = 1;
  rec.enclave_id = 1;
  rec.timestamp_ns = ts;
  rec.during_call = during_call;
  return rec;
}

PagingRecord paging_at(tracedb::Nanoseconds ts, std::uint64_t page) {
  PagingRecord rec;
  rec.enclave_id = 1;
  rec.page_number = page;
  rec.timestamp_ns = ts;
  return rec;
}

/// `rows` in timestamp order, ties in their given order: what the k-way
/// merge must produce from a single shard.
template <class Record>
std::vector<Record> stable_by_time(std::vector<Record> rows) {
  std::stable_sort(rows.begin(), rows.end(), [](const Record& a, const Record& b) {
    return a.timestamp_ns < b.timestamp_ns;
  });
  return rows;
}

TEST(TraceDatabaseShards, LoneShardWithAnOutOfOrderRowMergesLikeAStableSort) {
  // Two rounds of one shard, as with Logger::flush(): the first is in order
  // and fills the empty tables.  In the second, one AEX row or one paging
  // row runs backwards, so the merge must sort, or none does, so the rows
  // are appended as they are.  References shift past the first round's
  // calls either way.
  enum class Backwards { kAex, kPaging, kNone };
  for (const Backwards backwards : {Backwards::kAex, Backwards::kPaging, Backwards::kNone}) {
    TraceDatabase db;
    EventShard& s = db.register_shard(1);
    const CallIndex first = s.add_call(call(CallType::kEcall, 1, 100, 900));
    s.add_call(call(CallType::kOcall, 1, 200, 300, first));
    s.add_aex(aex_at(250, first));
    db.merge_shards();
    db.reopen_shards();

    const CallIndex e = s.add_call(call(CallType::kEcall, 1, 1'000, 1'900));
    const CallIndex o = s.add_call(call(CallType::kOcall, 1, 1'100, 1'200, e));
    const tracedb::Nanoseconds aex_ts = backwards == Backwards::kAex ? 1'020 : 1'060;
    const tracedb::Nanoseconds paging_ts = backwards == Backwards::kPaging ? 1'005 : 1'300;
    const std::vector<AexRecord> aexs = {aex_at(1'050, e), aex_at(aex_ts, e), aex_at(1'150, o),
                                         aex_at(1'150, e)};
    const std::vector<PagingRecord> paging = {paging_at(1'010, 0), paging_at(1'300, 1),
                                              paging_at(paging_ts, 2), paging_at(1'300, 3)};
    for (const auto& a : aexs) s.add_aex(a);
    for (const auto& p : paging) s.add_paging(p);
    const auto stats = db.merge_shards();
    EXPECT_EQ(stats.shards_merged, 1u);
    EXPECT_EQ(stats.calls, 2u);

    ASSERT_EQ(db.calls().size(), 4u);
    EXPECT_EQ(db.calls()[1].parent, 0);
    EXPECT_EQ(db.calls()[2].parent, kNoParent);
    EXPECT_EQ(db.calls()[3].parent, 2);  // local 0, after the 2 calls before it

    std::vector<AexRecord> want_aexs = stable_by_time(aexs);
    for (auto& a : want_aexs) a.during_call += 2;
    ASSERT_EQ(db.aexs().size(), 1 + want_aexs.size());
    for (std::size_t i = 0; i < want_aexs.size(); ++i) {
      EXPECT_EQ(db.aexs()[i + 1].timestamp_ns, want_aexs[i].timestamp_ns) << i;
      EXPECT_EQ(db.aexs()[i + 1].during_call, want_aexs[i].during_call) << i;
    }
    const std::vector<PagingRecord> want_paging = stable_by_time(paging);
    ASSERT_EQ(db.paging().size(), want_paging.size());
    for (std::size_t i = 0; i < want_paging.size(); ++i) {
      EXPECT_EQ(db.paging()[i].timestamp_ns, want_paging[i].timestamp_ns) << i;
      EXPECT_EQ(db.paging()[i].page_number, want_paging[i].page_number) << i;
    }
  }
}

TEST(TraceDatabaseShards, EqualTimestampsInAShardKeepAppendOrder) {
  // Once with every table in order (the identity merge), once with a
  // backwards sync row that forces the k-way merge: ties keep append order
  // in both.
  for (const bool force_sort : {false, true}) {
    TraceDatabase db;
    EventShard& s = db.register_shard(1);
    for (std::uint64_t page = 0; page < 8; ++page) s.add_paging(paging_at(500, page));
    for (std::uint32_t id = 0; id < 4; ++id) {
      CallRecord rec = call(CallType::kEcall, 1, 700, 800);
      rec.call_id = id;
      s.add_call(rec);
    }
    SyncRecord y;
    y.timestamp_ns = 900;
    s.add_sync(y);
    y.timestamp_ns = force_sort ? 10 : 900;
    s.add_sync(y);
    db.merge_shards();

    ASSERT_EQ(db.paging().size(), 8u);
    for (std::uint64_t page = 0; page < 8; ++page) {
      EXPECT_EQ(db.paging()[page].page_number, page) << force_sort;
    }
    ASSERT_EQ(db.calls().size(), 4u);
    for (std::uint32_t id = 0; id < 4; ++id) EXPECT_EQ(db.calls()[id].call_id, id) << force_sort;
    EXPECT_EQ(db.syncs().front().timestamp_ns, force_sort ? 10u : 900u);
  }
}

TEST(TraceDatabaseShards, OneNonEmptyShardCountsAsOneShardMerged) {
  TraceDatabase db;
  db.register_shard(1);  // registered, never written
  EventShard& s = db.register_shard(2);
  db.register_shard(3);
  const CallIndex e = s.add_call(call(CallType::kEcall, 2, 100, 900));
  s.add_call(call(CallType::kOcall, 2, 200, 300, e));
  s.add_aex(aex_at(250, e));

  const auto stats = db.merge_shards();
  EXPECT_EQ(stats.shards_merged, 1u);
  EXPECT_EQ(stats.calls, 2u);
  EXPECT_EQ(stats.aexs, 1u);
  EXPECT_EQ(db.merge_stats().shards_merged, 1u);
  ASSERT_EQ(db.calls().size(), 2u);
  EXPECT_EQ(db.calls()[1].parent, 0);
  EXPECT_EQ(db.aexs()[0].during_call, 0);
  // Every live shard is drained, the empty ones too.
  EXPECT_EQ(s.events_recorded(), 0u);
  EXPECT_TRUE(s.drained());
}

}  // namespace
