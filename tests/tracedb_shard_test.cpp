// EventShard / TraceDatabase sharded-writer tests: registration, the
// seal-before-merge lifecycle, out-of-order merge equivalence with a
// sequentially-built database, reference remapping, shard reuse, the
// move-constructor fix and the save() unmerged-events guard; then the merge
// of several shards (concatenated or interleaved) against a stable sort.
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

// --- several shards: concatenation and the loser tree ------------------------

/// One shard's rows as its writer appends them, references shard-local.
struct ShardRows {
  std::vector<CallRecord> calls;
  std::vector<AexRecord> aexs;
  std::vector<PagingRecord> paging;
  std::vector<SyncRecord> syncs;
};

void write_rows(EventShard& shard, const ShardRows& rows) {
  for (const auto& c : rows.calls) shard.add_call(c);
  for (const auto& a : rows.aexs) shard.add_aex(a);
  for (const auto& p : rows.paging) shard.add_paging(p);
  for (const auto& y : rows.syncs) shard.add_sync(y);
}

/// A row of `table`'s shard `shard` at append index `local`.
template <class Record>
struct Tagged {
  Record rec;
  std::size_t shard = 0;
  std::size_t local = 0;
};

/// Every shard's `table` rows, shards in registration order, each in append
/// order, then stable-sorted by `key`: the (key, shard id, append index)
/// order the merge must produce.
template <class Record>
std::vector<Tagged<Record>> stable_reference(const std::vector<ShardRows>& shards,
                                             std::vector<Record> ShardRows::*table,
                                             tracedb::Nanoseconds Record::*key) {
  std::vector<Tagged<Record>> rows;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const auto& part = shards[s].*table;
    for (std::size_t i = 0; i < part.size(); ++i) rows.push_back({part[i], s, i});
  }
  std::stable_sort(rows.begin(), rows.end(), [key](const auto& a, const auto& b) {
    return a.rec.*key < b.rec.*key;
  });
  return rows;
}

/// Checks that `db`'s tables, after its `base_calls` (and `base_aexs`,
/// `base_paging`, `base_syncs`) earlier rows, hold exactly the stable-sort
/// reference of `shards` (registered in that order), with every call
/// reference remapped to the global index of the call it named.
void expect_stable_merge(const TraceDatabase& db, const std::vector<ShardRows>& shards,
                         std::size_t base_calls = 0, std::size_t base_aexs = 0,
                         std::size_t base_paging = 0, std::size_t base_syncs = 0) {
  const auto calls = stable_reference(shards, &ShardRows::calls, &CallRecord::start_ns);
  std::vector<std::vector<CallIndex>> global(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) global[s].resize(shards[s].calls.size());
  for (std::size_t j = 0; j < calls.size(); ++j) {
    global[calls[j].shard][calls[j].local] = static_cast<CallIndex>(base_calls + j);
  }
  const auto remap = [&](std::size_t shard, CallIndex ref) {
    return ref == kNoParent ? kNoParent : global[shard][static_cast<std::size_t>(ref)];
  };

  ASSERT_EQ(db.calls().size(), base_calls + calls.size());
  for (std::size_t j = 0; j < calls.size(); ++j) {
    CallRecord want = calls[j].rec;
    want.parent = remap(calls[j].shard, want.parent);
    ASSERT_TRUE(same_call(db.calls()[base_calls + j], want)) << "call " << j;
  }
  const auto aexs = stable_reference(shards, &ShardRows::aexs, &AexRecord::timestamp_ns);
  ASSERT_EQ(db.aexs().size(), base_aexs + aexs.size());
  for (std::size_t j = 0; j < aexs.size(); ++j) {
    const AexRecord& got = db.aexs()[base_aexs + j];
    ASSERT_EQ(got.timestamp_ns, aexs[j].rec.timestamp_ns) << "aex " << j;
    ASSERT_EQ(got.thread_id, aexs[j].rec.thread_id) << "aex " << j;
    ASSERT_EQ(got.during_call, remap(aexs[j].shard, aexs[j].rec.during_call)) << "aex " << j;
  }
  const auto paging = stable_reference(shards, &ShardRows::paging, &PagingRecord::timestamp_ns);
  ASSERT_EQ(db.paging().size(), base_paging + paging.size());
  for (std::size_t j = 0; j < paging.size(); ++j) {
    const PagingRecord& got = db.paging()[base_paging + j];
    ASSERT_EQ(got.timestamp_ns, paging[j].rec.timestamp_ns) << "paging " << j;
    ASSERT_EQ(got.page_number, paging[j].rec.page_number) << "paging " << j;
  }
  const auto syncs = stable_reference(shards, &ShardRows::syncs, &SyncRecord::timestamp_ns);
  ASSERT_EQ(db.syncs().size(), base_syncs + syncs.size());
  for (std::size_t j = 0; j < syncs.size(); ++j) {
    const SyncRecord& got = db.syncs()[base_syncs + j];
    ASSERT_EQ(got.timestamp_ns, syncs[j].rec.timestamp_ns) << "sync " << j;
    ASSERT_EQ(got.target_thread_id, syncs[j].rec.target_thread_id) << "sync " << j;
  }
}

/// Registers one shard per entry of `shards`, in order, writes its rows and
/// merges.  Returns the merge's stats.
TraceDatabase::MergeStats register_write_merge(TraceDatabase& db,
                                               const std::vector<ShardRows>& shards) {
  std::vector<EventShard*> registered;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    registered.push_back(&db.register_shard(static_cast<tracedb::ThreadId>(s + 1)));
  }
  for (std::size_t s = 0; s < shards.size(); ++s) write_rows(*registered[s], shards[s]);
  return db.merge_shards();
}

SyncRecord sync_at(tracedb::Nanoseconds ts, tracedb::ThreadId tag) {
  SyncRecord rec;
  rec.timestamp_ns = ts;
  rec.target_thread_id = tag;
  return rec;
}

/// A shard of one thread's activity in [t, t + 1000): an ecall with a nested
/// ocall and a second ecall, an AEX in each of the first two, two page-ins
/// and two syncs, every table in key order.
ShardRows activity(tracedb::ThreadId tid, tracedb::Nanoseconds t) {
  ShardRows rows;
  rows.calls.push_back(call(CallType::kEcall, tid, t, t + 900));
  rows.calls.push_back(call(CallType::kOcall, tid, t + 100, t + 300, /*parent=*/0));
  rows.calls.push_back(call(CallType::kEcall, tid, t + 400, t + 500));
  rows.aexs.push_back(aex_at(t + 50, 0));
  rows.aexs.push_back(aex_at(t + 200, 1));
  rows.aexs.back().thread_id = tid;
  rows.paging.push_back(paging_at(t + 10, 100 * tid));
  rows.paging.push_back(paging_at(t + 700, 100 * tid + 1));
  rows.syncs.push_back(sync_at(t + 600, tid));
  rows.syncs.push_back(sync_at(t + 800, tid));
  return rows;
}

TEST(TraceDatabaseShards, DisjointShardsRegisteredAgainstKeyOrderConcatenate) {
  // Registered 0, 1, 2 but recorded in the order 2, 1, 0.
  const std::vector<ShardRows> shards = {activity(1, 20'000), activity(2, 10'000),
                                         activity(3, 0)};
  TraceDatabase db;
  const auto stats = register_write_merge(db, shards);
  EXPECT_EQ(stats.shards_merged, 3u);
  EXPECT_EQ(stats.interleaved, 0u);
  expect_stable_merge(db, shards);
  EXPECT_EQ(db.calls()[0].thread_id, 3u);
  EXPECT_EQ(db.calls()[7].parent, 6);  // shard 0's ocall, its ecall now at 6
}

TEST(TraceDatabaseShards, OverlappingShardsMergeLikeAStableSort) {
  const std::vector<ShardRows> shards = {activity(1, 0), activity(2, 40), activity(3, 80)};
  TraceDatabase db;
  const auto stats = register_write_merge(db, shards);
  EXPECT_EQ(stats.interleaved, 4u);
  expect_stable_merge(db, shards);
}

TEST(TraceDatabaseShards, TiedBoundaryConcatenatesOnlyWhenTheLowerShardIdComesFirst) {
  // Shard 0 ends on the key shard 1 starts with: the tie already sorts shard
  // 0's row first, so the shards concatenate.
  {
    ShardRows low;
    low.paging = {paging_at(100, 1), paging_at(500, 2)};
    ShardRows high;
    high.paging = {paging_at(500, 3), paging_at(900, 4)};
    TraceDatabase db;
    const auto stats = register_write_merge(db, {low, high});
    EXPECT_EQ(stats.interleaved, 0u);
    expect_stable_merge(db, {low, high});
  }
  // The higher shard id ends on the key the lower one starts with: the tie
  // puts shard 0's row before shard 1's last one, so the shards interleave.
  {
    ShardRows low;
    low.paging = {paging_at(500, 1), paging_at(900, 2)};
    ShardRows high;
    high.paging = {paging_at(100, 3), paging_at(500, 4)};
    TraceDatabase db;
    const auto stats = register_write_merge(db, {low, high});
    EXPECT_EQ(stats.interleaved, 1u);
    expect_stable_merge(db, {low, high});
    EXPECT_EQ(db.paging()[1].page_number, 1u);
    EXPECT_EQ(db.paging()[2].page_number, 4u);
  }
}

TEST(TraceDatabaseShards, AnEmptyTableLeavesTheOthersToMerge) {
  // No shard has an AEX, and only one has paging rows; the calls overlap and
  // the syncs are disjoint.
  std::vector<ShardRows> shards = {activity(1, 0), activity(2, 300)};
  for (auto& s : shards) s.aexs.clear();
  shards[1].paging.clear();
  shards[1].syncs = {sync_at(5'000, 9)};
  TraceDatabase db;
  const auto stats = register_write_merge(db, shards);
  EXPECT_EQ(stats.aexs, 0u);
  EXPECT_EQ(stats.interleaved, 1u);  // the calls
  expect_stable_merge(db, shards);
}

TEST(TraceDatabaseShards, ReferencesSurviveConcatenationAfterAFlush) {
  // Two merges of the same two shards, as Logger::flush() does: merge, then
  // reopen.  The second round's calls and AEXs land after the first round's
  // rows, and one shard's AEXs arrive out of order, so that shard is sorted
  // before it is appended.
  TraceDatabase db;
  EventShard& a = db.register_shard(1);
  EventShard& b = db.register_shard(2);
  const std::vector<ShardRows> first = {activity(1, 0), activity(2, 1'000)};
  write_rows(a, first[0]);
  write_rows(b, first[1]);
  EXPECT_EQ(db.merge_shards().interleaved, 0u);
  expect_stable_merge(db, first);
  db.reopen_shards();

  std::vector<ShardRows> second = {activity(1, 3'000), activity(2, 2'000)};
  std::swap(second[0].aexs[0], second[0].aexs[1]);
  write_rows(a, second[0]);
  write_rows(b, second[1]);
  const auto stats = db.merge_shards();
  EXPECT_EQ(stats.interleaved, 0u);
  expect_stable_merge(db, second, /*base_calls=*/6, /*base_aexs=*/4, /*base_paging=*/4,
                      /*base_syncs=*/4);
  EXPECT_EQ(db.calls()[10].parent, 9);        // shard a's ocall, after b's 3 calls
  EXPECT_EQ(db.aexs()[6].during_call, 9);     // a's first AEX once sorted
  EXPECT_EQ(db.aexs()[7].during_call, 10);
}

TEST(TraceDatabaseShards, RandomTiedJitteredShardsMergeLikeAStableSort) {
  // Frequent cross-shard ties (a step can be 0) and local out-of-order
  // jitter in every table, with references to random earlier calls.
  std::uint64_t state = 42;
  const auto rnd = [&] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  constexpr std::size_t kShards = 5;
  constexpr std::size_t kPerShard = 6'000;
  std::vector<ShardRows> shards(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    const auto tid = static_cast<tracedb::ThreadId>(s + 1);
    std::uint64_t t = 0;
    for (std::size_t i = 0; i < kPerShard; ++i) {
      t += rnd() % 3;
      const CallIndex parent = i == 0 ? kNoParent : static_cast<CallIndex>(rnd() % i);
      CallRecord c = call(CallType::kOcall, tid, t + rnd() % 8, t + 20, parent);
      c.call_id = static_cast<std::uint32_t>(i);
      shards[s].calls.push_back(c);
      AexRecord x = aex_at(t + rnd() % 8, static_cast<CallIndex>(rnd() % (i + 1)));
      x.thread_id = tid;
      shards[s].aexs.push_back(x);
      shards[s].paging.push_back(paging_at(t + rnd() % 8, s * kPerShard + i));
      shards[s].syncs.push_back(sync_at(t + rnd() % 8, static_cast<tracedb::ThreadId>(i)));
    }
  }
  TraceDatabase db;
  const auto stats = register_write_merge(db, shards);
  EXPECT_EQ(stats.interleaved, 4u);
  expect_stable_merge(db, shards);

  // The global-order contract, checked directly: keys ascend, and a tie
  // between shards goes to the lower shard id (= thread id - 1 here).
  for (std::size_t i = 1; i < db.calls().size(); ++i) {
    const CallRecord& a = db.calls()[i - 1];
    const CallRecord& b = db.calls()[i];
    ASSERT_LE(a.start_ns, b.start_ns) << i;
    if (a.start_ns == b.start_ns) {
      if (a.thread_id == b.thread_id) {
        ASSERT_LT(a.call_id, b.call_id) << i;
      } else {
        ASSERT_LT(a.thread_id, b.thread_id) << i;
      }
    }
  }
}

}  // namespace
