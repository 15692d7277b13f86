// Query-layer edge cases (empty database, single-event traces) and the
// flat file's latency table: round trips, reload stability and geometry
// validation on load.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "telemetry/hdr_histogram.hpp"
#include "tracedb/database.hpp"
#include "tracedb/query.hpp"

namespace {

using tracedb::CallKey;
using tracedb::CallRecord;
using tracedb::CallType;
using tracedb::TraceDatabase;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(QueryEdgeCases, EmptyDatabaseYieldsEmptyViews) {
  TraceDatabase db;
  EXPECT_TRUE(tracedb::group_calls(db).empty());
  EXPECT_TRUE(tracedb::durations_of(db, CallKey{1, CallType::kEcall, 0}).empty());
  EXPECT_TRUE(tracedb::scatter_of(db, CallKey{1, CallType::kEcall, 0}).empty());
  const auto index = tracedb::index_trace(db);
  EXPECT_TRUE(index.sites.empty());
  EXPECT_TRUE(index.indirect.empty());
  EXPECT_EQ(db.find_latency(1, CallType::kEcall, 0), nullptr);
  EXPECT_EQ(db.stream_dropped(), 0u);
}

TEST(QueryEdgeCases, SingleEventTrace) {
  TraceDatabase db;
  CallRecord c;
  c.type = CallType::kEcall;
  c.thread_id = 3;
  c.enclave_id = 5;
  c.call_id = 2;
  c.start_ns = 100;
  c.end_ns = 350;
  db.add_call(c);

  const CallKey key{5, CallType::kEcall, 2};
  const auto groups = tracedb::group_calls(db);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups.begin()->first, key);

  const auto durations = tracedb::durations_of(db, key);
  ASSERT_EQ(durations.size(), 1u);
  EXPECT_EQ(durations[0], 250u);

  const auto index = tracedb::index_trace(db);
  EXPECT_EQ(index.sites, groups);
  ASSERT_EQ(index.indirect.size(), 1u);
  EXPECT_EQ(index.indirect[0], tracedb::kNoParent);
}

TraceDatabase synthesized_name_db() {
  TraceDatabase db;
  CallRecord c;
  c.thread_id = 1;
  c.enclave_id = 5;
  c.type = CallType::kEcall;
  c.call_id = 2;
  c.start_ns = 100;
  c.end_ns = 200;
  db.add_call(c);
  c.type = CallType::kOcall;
  c.call_id = 7;
  c.start_ns = 300;
  c.end_ns = 400;
  db.add_call(c);
  c.type = CallType::kEcall;
  c.call_id = 4;
  c.start_ns = 500;
  c.end_ns = 600;
  db.add_call(c);
  tracedb::CallNameRecord name;
  name.enclave_id = 5;
  name.type = CallType::kEcall;
  name.call_id = 4;
  name.name = "ecall_named";
  db.add_call_name(name);
  return db;
}

TEST(QueryFindCallByName, SynthesizedNameResolves) {
  const TraceDatabase db = synthesized_name_db();
  EXPECT_EQ(tracedb::find_call_by_name(db, 5, "ecall_2"), (CallKey{5, CallType::kEcall, 2}));
  EXPECT_EQ(tracedb::find_call_by_name(db, 5, "ocall_7"), (CallKey{5, CallType::kOcall, 7}));
  EXPECT_EQ(tracedb::find_call_by_name(db, 5, "ecall_named"), (CallKey{5, CallType::kEcall, 4}));
  EXPECT_EQ(tracedb::find_call_by_name(db, 6, "ecall_2"), std::nullopt) << "other enclave";
  EXPECT_EQ(tracedb::find_call_by_name(db, 5, "ocall_2"), std::nullopt) << "other type";
}

TEST(QueryFindCallByName, SynthesizedNameWithoutCallsIsUnknown) {
  const TraceDatabase db = synthesized_name_db();
  EXPECT_EQ(tracedb::find_call_by_name(db, 5, "ecall_9"), std::nullopt);
  EXPECT_EQ(tracedb::find_call_by_name(TraceDatabase{}, 5, "ecall_2"), std::nullopt);
  for (const char* bad : {"ecall_", "ecall_02", "ecall_2x", "ecall_+2", "ecall_-1", "Ecall_2",
                          "ecall_4294967298", "call_2", ""}) {
    EXPECT_EQ(tracedb::find_call_by_name(db, 5, bad), std::nullopt) << bad;
  }
}

TEST(QueryFindCallByName, SynthesizedNameOfANamedSiteIsUnknown) {
  // ecall 4 is recorded as "ecall_named", so "ecall_4" names nothing.
  const TraceDatabase db = synthesized_name_db();
  EXPECT_EQ(tracedb::find_call_by_name(db, 5, "ecall_4"), std::nullopt);
}

TEST(FormatV4, LatencyTableRoundTrips) {
  TraceDatabase db;
  tracedb::LatencyRecord rec;
  rec.enclave_id = 1;
  rec.type = CallType::kEcall;
  rec.call_id = 4;
  rec.count = 3;
  rec.sum_ns = 3'300;
  rec.buckets = {{telemetry::hdr::index_of(1'000), 2}, {telemetry::hdr::index_of(1'300), 1}};
  db.set_latency(rec);
  db.set_stream_dropped(17);

  const std::string path = temp_path("tracedb_v4_roundtrip.bin");
  db.save(path);
  const TraceDatabase reloaded = TraceDatabase::load(path);
  std::filesystem::remove(path);

  EXPECT_EQ(reloaded.stream_dropped(), 17u);
  const auto* found = reloaded.find_latency(1, CallType::kEcall, 4);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->count, 3u);
  EXPECT_EQ(found->sum_ns, 3'300u);
  EXPECT_EQ(found->buckets, rec.buckets);
  EXPECT_EQ(reloaded.find_latency(1, CallType::kOcall, 4), nullptr);
}

TEST(FormatV4, SetLatencyUpsertsByKey) {
  TraceDatabase db;
  tracedb::LatencyRecord rec;
  rec.enclave_id = 2;
  rec.type = CallType::kOcall;
  rec.call_id = 0;
  rec.count = 1;
  db.set_latency(rec);
  rec.count = 9;
  db.set_latency(rec);  // same key: replaces, not appends
  ASSERT_EQ(db.latencies().size(), 1u);
  EXPECT_EQ(db.latencies()[0].count, 9u);
}

TEST(FormatV4, V3SaveIsAPrefixOfV4Save) {
  // Loading a trace with a latency table and saving it again must preserve
  // every table bit-for-bit.
  TraceDatabase db;
  CallRecord c;
  c.type = CallType::kOcall;
  c.enclave_id = 9;
  c.call_id = 1;
  c.start_ns = 5;
  c.end_ns = 50;
  db.add_call(c);
  tracedb::LatencyRecord rec;
  rec.enclave_id = 9;
  rec.type = CallType::kOcall;
  rec.call_id = 1;
  rec.count = 1;
  rec.sum_ns = 45;
  rec.buckets = {{telemetry::hdr::index_of(45), 1}};
  db.set_latency(rec);

  const std::string path = temp_path("tracedb_v4_reload.bin");
  db.save(path);
  const TraceDatabase once = TraceDatabase::load(path);
  const std::string path2 = temp_path("tracedb_v4_reload2.bin");
  once.save(path2);

  std::ifstream a(path, std::ios::binary);
  std::ifstream b(path2, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
  EXPECT_EQ(bytes_a.substr(0, 8), "SGXPTRC6");
  std::filesystem::remove(path);
  std::filesystem::remove(path2);
}

TEST(FormatV4, RejectsMismatchedBucketGeometry) {
  TraceDatabase db;
  db.set_stream_dropped(1);
  const std::string path = temp_path("tracedb_v4_badgeom.bin");
  db.save(path);

  // Corrupt the geometry header: its sub_bits byte follows the magic, the
  // six empty event and name tables, the dropped-event count, the two empty
  // metric tables and the stream-drop count, 8 + 10 * 8 bytes in.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekp(8 + 10 * 8);
  const char bad_sub_bits = 6;
  f.write(&bad_sub_bits, 1);
  f.close();

  try {
    (void)TraceDatabase::load(path);
    ADD_FAILURE() << "a mismatched bucket geometry must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bucket geometry mismatch"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

}  // namespace
