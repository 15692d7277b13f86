#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "tracedb/database.hpp"
#include "tracedb/query.hpp"

namespace {

using namespace tracedb;

CallRecord make_call(CallType type, ThreadId tid, EnclaveId eid, CallId id, Nanoseconds start,
                     Nanoseconds end, CallIndex parent = kNoParent) {
  CallRecord c;
  c.type = type;
  c.thread_id = tid;
  c.enclave_id = eid;
  c.call_id = id;
  c.start_ns = start;
  c.end_ns = end;
  c.parent = parent;
  return c;
}

TEST(TraceDatabase, AddAndFinishCall) {
  TraceDatabase db;
  auto rec = make_call(CallType::kEcall, 1, 1, 0, 100, 0);
  const CallIndex idx = db.add_call(rec);
  EXPECT_EQ(idx, 0);
  db.finish_call(idx, 500, 3);
  EXPECT_EQ(db.calls()[0].end_ns, 500u);
  EXPECT_EQ(db.calls()[0].aex_count, 3u);
  EXPECT_EQ(db.calls()[0].duration(), 400u);
}

TEST(TraceDatabase, SetCallKind) {
  TraceDatabase db;
  const CallIndex idx = db.add_call(make_call(CallType::kOcall, 1, 1, 5, 0, 1));
  db.set_call_kind(idx, OcallKind::kSleep);
  EXPECT_EQ(db.calls()[0].kind, OcallKind::kSleep);
}

TEST(TraceDatabase, CallNamesAreIdempotent) {
  TraceDatabase db;
  db.add_call_name({1, CallType::kEcall, 0, "ecall_foo"});
  db.add_call_name({1, CallType::kEcall, 0, "ecall_other"});  // ignored
  EXPECT_EQ(db.call_names().size(), 1u);
  EXPECT_EQ(db.name_of(1, CallType::kEcall, 0), "ecall_foo");
}

TEST(TraceDatabase, NameOfFallsBack) {
  TraceDatabase db;
  EXPECT_EQ(db.name_of(1, CallType::kEcall, 7), "ecall_7");
  EXPECT_EQ(db.name_of(1, CallType::kOcall, 3), "ocall_3");
}

TEST(TraceDatabase, EnclaveLifecycle) {
  TraceDatabase db;
  EnclaveRecord e;
  e.enclave_id = 42;
  e.name = "test";
  e.created_ns = 10;
  db.add_enclave(e);
  db.set_enclave_destroyed(42, 99);
  EXPECT_EQ(db.enclaves()[0].destroyed_ns, 99u);
  db.set_enclave_destroyed(7, 1);  // unknown id: no-op
}

TEST(TraceDatabase, ClearDropsEverything) {
  TraceDatabase db;
  db.add_call(make_call(CallType::kEcall, 1, 1, 0, 0, 1));
  db.add_aex({1, 1, 5, kNoParent});
  db.add_paging({1, 3, PageDirection::kPageOut, 7});
  db.add_sync({SyncKind::kSleep, 1, 0, 1, 9});
  db.clear();
  EXPECT_TRUE(db.calls().empty());
  EXPECT_TRUE(db.aexs().empty());
  EXPECT_TRUE(db.paging().empty());
  EXPECT_TRUE(db.syncs().empty());
}

TEST(TraceDatabase, SaveLoadRoundTrip) {
  TraceDatabase db;
  db.add_call(make_call(CallType::kEcall, 1, 9, 4, 100, 200));
  const CallIndex o = db.add_call(make_call(CallType::kOcall, 1, 9, 2, 120, 150, 0));
  db.set_call_kind(o, OcallKind::kWakeOne);
  db.add_aex({1, 9, 130, 0});
  db.add_paging({9, 77, PageDirection::kPageIn, 140});
  db.add_sync({SyncKind::kWakeup, 1, 2, 9, 135});
  EnclaveRecord e;
  e.enclave_id = 9;
  e.name = "roundtrip";
  e.tcs_count = 4;
  e.size_bytes = 4096 * 100;
  db.add_enclave(e);
  db.add_call_name({9, CallType::kEcall, 4, "ecall_test"});

  const std::string path = testing::TempDir() + "/trace_roundtrip.bin";
  db.save(path);
  const TraceDatabase loaded = TraceDatabase::load(path);

  ASSERT_EQ(loaded.calls().size(), 2u);
  EXPECT_EQ(loaded.calls()[0].call_id, 4u);
  EXPECT_EQ(loaded.calls()[1].kind, OcallKind::kWakeOne);
  EXPECT_EQ(loaded.calls()[1].parent, 0);
  ASSERT_EQ(loaded.aexs().size(), 1u);
  EXPECT_EQ(loaded.aexs()[0].timestamp_ns, 130u);
  ASSERT_EQ(loaded.paging().size(), 1u);
  EXPECT_EQ(loaded.paging()[0].page_number, 77u);
  ASSERT_EQ(loaded.syncs().size(), 1u);
  EXPECT_EQ(loaded.syncs()[0].target_thread_id, 2u);
  ASSERT_EQ(loaded.enclaves().size(), 1u);
  EXPECT_EQ(loaded.enclaves()[0].name, "roundtrip");
  EXPECT_EQ(loaded.name_of(9, CallType::kEcall, 4), "ecall_test");
  std::remove(path.c_str());
}

TEST(TraceDatabase, LoadRejectsBadMagic) {
  const std::string path = testing::TempDir() + "/bad_magic.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTATRACEFILE___";
  }
  EXPECT_THROW(TraceDatabase::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceDatabase, LoadRejectsMissingFile) {
  EXPECT_THROW(TraceDatabase::load("/nonexistent/path/zzz.bin"), std::runtime_error);
}

TEST(TraceDatabase, CsvExportWritesAllTables) {
  TraceDatabase db;
  db.add_call(make_call(CallType::kEcall, 1, 1, 0, 0, 10));
  const std::string dir = testing::TempDir() + "/csv_export";
  db.export_csv(dir);
  for (const char* name : {"calls.csv", "aexs.csv", "paging.csv", "syncs.csv", "enclaves.csv",
                           "call_names.csv"}) {
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + name)) << name;
  }
  std::filesystem::remove_all(dir);
}

// --- query helpers --------------------------------------------------------------

class QueryTest : public testing::Test {
 protected:
  void SetUp() override {
    // Two ecalls (id 0) and one ocall (id 1) on enclave 1; one ecall on
    // enclave 2.
    db_.add_call(make_call(CallType::kEcall, 1, 1, 0, 0, 1'000));
    db_.add_call(make_call(CallType::kEcall, 1, 1, 0, 2'000, 20'000));
    db_.add_call(make_call(CallType::kOcall, 1, 1, 1, 2'500, 3'000, 1));
    db_.add_call(make_call(CallType::kEcall, 2, 2, 0, 5'000, 6'000));
  }

  TraceDatabase db_;
};

TEST_F(QueryTest, GroupCalls) {
  const auto groups = group_calls(db_);
  EXPECT_EQ(groups.size(), 3u);
  const CallKey key{1, CallType::kEcall, 0};
  ASSERT_TRUE(groups.contains(key));
  EXPECT_EQ(groups.at(key).size(), 2u);
}

TEST_F(QueryTest, DurationsOf) {
  const auto d = durations_of(db_, CallKey{1, CallType::kEcall, 0});
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0], 1'000u);
  EXPECT_EQ(d[1], 18'000u);
}

TEST_F(QueryTest, ScatterOf) {
  const auto pts = scatter_of(db_, CallKey{1, CallType::kEcall, 0});
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[1].first, 2'000u);
  EXPECT_EQ(pts[1].second, 18'000u);
}

}  // namespace
