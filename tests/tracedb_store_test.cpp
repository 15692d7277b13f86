// SGXSTORE round-trip, laziness, corruption and compaction tests.
//
// The store is a re-sectioning of the flat v6 payload, so losslessness is
// asserted the same way tracedb_v6_test.cpp asserts save/load stability:
// byte-compare the flat serialisations on either side of a pack -> unpack
// trip.  Corruption coverage mirrors that file's style too — damage one
// exact spot on disk, expect one distinct error, and verify no partially
// populated database escapes.  The soak-corpus tests additionally pin the
// headline lazy-loading claim: a summary open of an events-dominated store
// reads less than 10% of its bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "perf/logger.hpp"
#include "sgxsim/runtime.hpp"
#include "stress/harness.hpp"
#include "stress/stressor.hpp"
#include "support/crc32.hpp"
#include "telemetry/metrics.hpp"
#include "tracedb/database.hpp"
#include "tracedb/open.hpp"
#include "tracedb/store/format.hpp"
#include "tracedb/store/store.hpp"

namespace {

namespace fs = std::filesystem;
using tracedb::AexRecord;
using tracedb::AlertKind;
using tracedb::AlertRecord;
using tracedb::CallRecord;
using tracedb::CallType;
using tracedb::EnclaveRecord;
using tracedb::LatencyRecord;
using tracedb::OrderRuleRecord;
using tracedb::PagingRecord;
using tracedb::SyncRecord;
using tracedb::TraceDatabase;
using tracedb::WindowRecord;
using tracedb::WindowSiteRecord;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Flat serialisation of `db` — the byte-identity yardstick for round trips.
std::string flat_bytes(const TraceDatabase& db, const std::string& name) {
  const std::string path = temp_path(name);
  db.save(path);
  std::string bytes = slurp(path);
  fs::remove(path);
  return bytes;
}

/// A database exercising every table the store persists: nested calls whose
/// parent references cross chunk boundaries, aux events interleaved with the
/// calls, and a full summary (latencies, windows, alerts, order rules).
TraceDatabase make_fixture_db() {
  TraceDatabase db;
  db.add_enclave({1, "worker", 5, 0, 4, 1 << 20});
  db.add_call_name({1, CallType::kEcall, 7, "process"});
  db.add_call_name({1, CallType::kOcall, 3, "write_log"});

  // Ten top-level ecalls, each hosting one ocall: with chunk_calls = 3 the
  // pack splits these 20 rows across many chunks, and every ocall's parent
  // points at an earlier row — the rebase arithmetic gets real work.
  for (std::uint64_t i = 0; i < 10; ++i) {
    const tracedb::Nanoseconds base = 1'000 * (i + 1);
    CallRecord ecall;
    ecall.type = CallType::kEcall;
    ecall.thread_id = static_cast<tracedb::ThreadId>(i % 3);
    ecall.enclave_id = 1;
    ecall.call_id = 7;
    ecall.start_ns = base;
    ecall.end_ns = base + 900;
    ecall.aex_count = i % 2;
    const tracedb::CallIndex parent = db.add_call(ecall);
    CallRecord ocall;
    ocall.type = CallType::kOcall;
    ocall.thread_id = ecall.thread_id;
    ocall.enclave_id = 1;
    ocall.call_id = 3;
    ocall.parent = parent;
    ocall.start_ns = base + 100;
    ocall.end_ns = base + 200;
    db.add_call(ocall);
    db.add_aex({ecall.thread_id, 1, base + 50, parent, tracedb::AexCause::kInterrupt});
    db.add_paging({1, i, tracedb::PageDirection::kPageOut, base + 60});
    db.add_sync({tracedb::SyncKind::kSleep, ecall.thread_id, 0, 1, base + 70});
  }

  const auto series = db.add_metric_series(tracedb::MetricKind::kGauge, "epc_used", "pages");
  db.add_metric_sample({series, 1'500, 12.5});
  db.add_metric_sample({series, 2'500, 14.0});

  LatencyRecord lat;
  lat.enclave_id = 1;
  lat.type = CallType::kEcall;
  lat.call_id = 7;
  lat.count = 10;
  lat.sum_ns = 9'000;
  lat.buckets = {{40, 4}, {41, 6}};
  db.set_latency(lat);

  db.set_window_period(1'000'000);
  for (std::uint32_t w = 0; w < 2; ++w) {
    WindowRecord win;
    win.window_index = w;
    win.start_ns = w * 1'000'000;
    win.end_ns = (w + 1) * 1'000'000;
    win.calls = 10;
    win.aexs = 5;
    win.active_alerts = w;
    db.add_window(win);
    WindowSiteRecord site;
    site.window_index = w;
    site.enclave_id = 1;
    site.type = CallType::kEcall;
    site.call_id = 7;
    site.calls = 10;
    site.p50_ns = 900;
    site.p99_ns = 950;
    db.add_window_site(site);
  }
  AlertRecord alert;
  alert.kind = AlertKind::kShortCalls;
  alert.enclave_id = 1;
  alert.type = CallType::kEcall;
  alert.call_id = 7;
  alert.onset_ns = 1'200;
  alert.resolved_ns = 2'400;
  alert.window_index = 1;
  alert.detail = 1'500;
  db.add_alert(alert);

  db.add_order_rule({1, OrderRuleRecord::Rule::kInit, 7, 0});
  db.add_order_rule({1, OrderRuleRecord::Rule::kEdge, 7, 7});
  db.set_stream_dropped(3);
  return db;
}

/// RAII-ish store directory path: removed on construction and destruction.
struct StoreDir {
  explicit StoreDir(const std::string& name) : path(temp_path(name)) { fs::remove_all(path); }
  ~StoreDir() { fs::remove_all(path); }
  const std::string path;
};

std::string expect_store_error(const std::string& dir, unsigned mask) {
  try {
    tracedb::store::StoreReader reader(dir);
    (void)reader.load(mask);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a store error from " << dir;
  return {};
}

/// A packed store whose events section holds exactly one chunk, kept as
/// bytes so each case can rewrite that chunk from the original.
struct OneChunkStore {
  explicit OneChunkStore(const std::string& name) : dir(name) {
    tracedb::store::pack(make_fixture_db(), dir.path);
    events = slurp(events_path());
    index = slurp(index_path());
  }

  std::string events_path() const { return dir.path + "/events.db"; }
  std::string index_path() const { return dir.path + "/" + tracedb::store::kIndexFileName; }

  /// The chunk's bytes from its magic through its last row (no CRC).
  std::string payload() const {
    const auto entry = directory();
    EXPECT_EQ(entry.offset, 0u);
    return events.substr(0, entry.length - 4);
  }

  /// Writes `payload` as the chunk and re-checksums everything that covers
  /// it: the chunk's trailing CRC, its directory entry's CRC and length, and
  /// the events section's CRC and length in the index.  The chunk's header
  /// counts stay whatever `payload` says; the directory entry gets
  /// `call_rebase`.
  void write_chunk(const std::string& payload, std::uint64_t call_rebase = 0) const {
    auto entry = directory();
    entry.call_rebase = call_rebase;
    const std::uint32_t crc = support::crc32(payload.data(), payload.size());
    std::string file = payload;
    file.append(reinterpret_cast<const char*>(&crc), 4);
    entry.crc = crc;
    entry.length = file.size();
    const std::string footer = tracedb::store::encode_footer({entry});
    const std::uint64_t footer_len = footer.size();
    file += footer;
    file.append(reinterpret_cast<const char*>(&footer_len), 8);
    spill(events_path(), file);

    tracedb::store::StoreIndex idx = tracedb::store::parse_index(index);
    for (auto& section : idx.sections) {
      if (section.id != tracedb::store::kEventsSection) continue;
      EXPECT_EQ(section.offset, 0u);
      section.length = file.size();
      section.crc = support::crc32(footer.data(), footer.size());
    }
    spill(index_path(), tracedb::store::encode_index(idx));
  }

  StoreDir dir;
  std::string events;
  std::string index;

 private:
  tracedb::store::ChunkDirEntry directory() const {
    std::uint64_t footer_len;
    std::memcpy(&footer_len, events.data() + events.size() - 8, 8);
    const std::size_t footer_at = events.size() - 8 - footer_len;
    const auto chunks =
        tracedb::store::parse_footer(events.data() + footer_at, footer_len, footer_at);
    EXPECT_EQ(chunks.size(), 1u);
    return chunks.at(0);
  }
};

// --- round trips -------------------------------------------------------------

TEST(TraceStore, PackUnpackRoundTripsByteIdentically) {
  const TraceDatabase db = make_fixture_db();
  const std::string before = flat_bytes(db, "store_rt_before.bin");

  StoreDir store("store_rt.store");
  tracedb::store::pack(db, store.path, {.chunk_calls = 3});  // force 7 chunks
  const TraceDatabase back = tracedb::store::unpack(store.path);
  EXPECT_EQ(flat_bytes(back, "store_rt_after.bin"), before);

  // The directory really is multi-file with every section present.
  for (const char* f : {"store.idx", "meta.db", "profile.db", "alerts.db", "events.db"}) {
    EXPECT_TRUE(fs::exists(fs::path(store.path) / f)) << f;
  }
}

TEST(TraceStore, EmptyDatabaseRoundTrips) {
  const TraceDatabase db;
  const std::string before = flat_bytes(db, "store_empty_before.bin");
  StoreDir store("store_empty.store");
  tracedb::store::pack(db, store.path);
  const TraceDatabase back = tracedb::store::unpack(store.path);
  EXPECT_EQ(flat_bytes(back, "store_empty_after.bin"), before);
}

/// make_fixture_db() topped up so that each of the 13 tables holds at least
/// two rows and every scalar counter is non-zero.
TraceDatabase make_all_tables_db() {
  TraceDatabase db = make_fixture_db();
  db.add_enclave({2, "audit", 7, 90'000, 1, 1 << 16});
  const auto counter = db.add_metric_series(tracedb::MetricKind::kCounter, "events", "n");
  db.add_metric_sample({counter, 3'000, 40.0});
  LatencyRecord lat;
  lat.enclave_id = 1;
  lat.type = CallType::kOcall;
  lat.call_id = 3;
  lat.count = 10;
  lat.sum_ns = 1'000;
  lat.buckets = {{20, 10}};
  db.set_latency(lat);
  AlertRecord alert;
  alert.kind = AlertKind::kReentrantEcall;
  alert.enclave_id = 1;
  alert.type = CallType::kEcall;
  alert.call_id = 7;
  alert.onset_ns = 5'000;
  alert.window_index = 0;
  alert.detail = (1ull << 32) | 2;
  db.add_alert(alert);
  // A real dropped event: seal the shard via merge, then append late.
  auto& shard = db.register_shard(/*owner_thread=*/1);
  db.merge_shards();
  EXPECT_EQ(shard.add_call(db.calls().front()), tracedb::kShardSealed);
  db.merge_shards();
  return db;
}

// Behaviour lock on the byte layout of every table in both formats.  A
// round-trip compare cannot see a layout change made symmetrically in an
// encoder and its decoder; these checksums can.
TEST(TraceStore, EveryTableEncodesToPinnedBytes) {
  const TraceDatabase db = make_all_tables_db();
  for (const std::size_t rows :
       {db.calls().size(), db.aexs().size(), db.paging().size(), db.syncs().size(),
        db.enclaves().size(), db.call_names().size(), db.metric_series().size(),
        db.metric_samples().size(), db.latencies().size(), db.windows().size(),
        db.window_sites().size(), db.alerts().size(), db.order_rules().size()}) {
    EXPECT_GE(rows, 2u);
  }
  EXPECT_EQ(db.dropped_events(), 1u);
  EXPECT_EQ(db.stream_dropped(), 3u);
  EXPECT_EQ(db.window_period(), 1'000'000u);

  const std::string flat = flat_bytes(db, "store_pinned.bin");
  EXPECT_EQ(support::crc32(flat.data(), flat.size()), 0xcea81137u);

  StoreDir store("store_pinned.store");
  tracedb::store::pack(db, store.path, {.chunk_calls = 3});
  const std::pair<const char*, std::uint32_t> sections[] = {
      {"meta.db", 0x4e5fc51cu},
      {"profile.db", 0x0fe971bbu},
      {"alerts.db", 0xbf744193u},
      {"events.db", 0xa04d106bu},
  };
  for (const auto& [file, crc] : sections) {
    const std::string bytes = slurp(store.path + "/" + file);
    EXPECT_EQ(support::crc32(bytes.data(), bytes.size()), crc) << file;
  }
}

TEST(TraceStore, PackObservesTheStoreStageTimers) {
  // tracedb.store.encode_ns times add_events and tracedb.store.commit_ns
  // times commit(); both are registered with the merge timer, so a sampled
  // recording lists them.
  const auto observations = [](const std::string& name) {
    for (const auto& row : telemetry::metrics().snapshot()) {
      if (row.name == name + ".count") return row.value;
    }
    return 0.0;
  };
  const double encodes = observations("tracedb.store.encode_ns");
  const double commits = observations("tracedb.store.commit_ns");
  StoreDir store("store_timers.store");
  tracedb::store::pack(make_fixture_db(), store.path);
  EXPECT_EQ(observations("tracedb.store.encode_ns"), encodes + 1);
  EXPECT_EQ(observations("tracedb.store.commit_ns"), commits + 1);
}

// Behaviour lock on what the logger's shard merge hands the two writers.
// One recording is a single-thread `mixed` run stepped by hand with a
// flush() half way, so its second merge appends to a non-empty database;
// the other is a lockstep four-thread run, whose shards interleave.
// Each recording's flat file and store sections are pinned by CRC32,
// together with its merge statistics.
struct RecordingLock {
  std::uint32_t flat;
  std::uint32_t meta, profile, alerts, events;
  TraceDatabase::MergeStats stats;
};

void expect_recording_bytes(const TraceDatabase& db, const std::string& name,
                            const RecordingLock& want) {
  const std::string flat = flat_bytes(db, name + ".bin");
  EXPECT_EQ(support::crc32(flat.data(), flat.size()), want.flat) << name;
  StoreDir store(name + ".store");
  tracedb::store::pack(db, store.path, {.chunk_calls = 512});
  const std::pair<const char*, std::uint32_t> sections[] = {
      {"meta.db", want.meta},
      {"profile.db", want.profile},
      {"alerts.db", want.alerts},
      {"events.db", want.events},
  };
  for (const auto& [file, crc] : sections) {
    const std::string bytes = slurp(store.path + "/" + file);
    EXPECT_EQ(support::crc32(bytes.data(), bytes.size()), crc) << name << " " << file;
  }
  const auto got = db.merge_stats();
  EXPECT_EQ(got.merges, want.stats.merges) << name;
  EXPECT_EQ(got.shards_merged, want.stats.shards_merged) << name;
  EXPECT_EQ(got.calls, want.stats.calls) << name;
  EXPECT_EQ(got.aexs, want.stats.aexs) << name;
  EXPECT_EQ(got.paging, want.stats.paging) << name;
  EXPECT_EQ(got.syncs, want.stats.syncs) << name;
  EXPECT_EQ(got.dropped, want.stats.dropped) << name;
}

TEST(TraceLocks, RecordedSessionsEncodeToPinnedBytes) {
  perf::LoggerConfig logger_config;
  logger_config.trace_aex = true;
  {
    sgxsim::Urts urts;
    const auto stressor = stress::make_stressor("mixed");
    ASSERT_NE(stressor, nullptr);
    stress::StressConfig config;
    config.threads = 1;
    config.seed = 29;
    stressor->prepare(urts, config);
    TraceDatabase db;
    perf::Logger logger(db, logger_config);
    logger.attach(urts);
    for (std::uint64_t op = 0; op < 160; ++op) {
      stressor->step(urts, 0, op);
      if (op == 79) logger.flush();
    }
    logger.detach();
    expect_recording_bytes(db, "lock_mixed_t1",
                           {0x7e2be97fu, 0x21f8200au, 0xe404e626u, 0x6522df69u, 0x835de488u,
                            {.merges = 2,
                             .shards_merged = 2,
                             .calls = 840,
                             .aexs = 2560,
                             .paging = 5136,
                             .syncs = 80,
                             .dropped = 0}});
  }
  {
    sgxsim::Urts urts;
    const auto stressor = stress::make_stressor("mixed");
    ASSERT_NE(stressor, nullptr);
    stress::StressConfig config;
    config.threads = 4;
    config.duration_ns = 10'000'000;
    config.seed = 29;
    TraceDatabase db;
    perf::Logger logger(db, logger_config);
    logger.attach(urts);
    (void)stress::run_stressor(*stressor, urts, config);
    logger.detach();
    expect_recording_bytes(db, "lock_mixed_t4",
                           {0xc3c243e3u, 0x2186fbb8u, 0x1b712fc7u, 0x6522df69u, 0x72bcb413u,
                            {.merges = 1,
                             .shards_merged = 5,
                             .calls = 133,
                             .aexs = 256,
                             .paging = 69004,
                             .syncs = 8,
                             .dropped = 0}});
  }
  {
    // Attached before prepare() with one worker: the main thread's shard
    // holds the set-up's page-ins and the worker's shard the run, and in
    // each table the two shards' key ranges do not overlap.
    sgxsim::Urts urts;
    const auto stressor = stress::make_stressor("mixed");
    ASSERT_NE(stressor, nullptr);
    stress::StressConfig config;
    config.threads = 1;
    config.duration_ns = 10'000'000;
    config.seed = 29;
    TraceDatabase db;
    perf::Logger logger(db, logger_config);
    logger.attach(urts);
    (void)stress::run_stressor(*stressor, urts, config);
    logger.detach();
    expect_recording_bytes(db, "lock_mixed_t1_attached_first",
                           {0xf96d7780u, 0x826f61d9u, 0x4f3c1940u, 0x6522df69u, 0x415eb1c0u,
                            {.merges = 1,
                             .shards_merged = 2,
                             .calls = 106,
                             .aexs = 320,
                             .paging = 69132,
                             .syncs = 10,
                             .dropped = 0}});
  }
}

/// Merge stats of `threads` lockstep `mixed` workers recorded for 10 ms
/// (seed 29) with the logger attached before prepare(), as the locks above.
TraceDatabase::MergeStats merge_stats_attached_first(std::size_t threads) {
  sgxsim::Urts urts;
  const auto stressor = stress::make_stressor("mixed");
  stress::StressConfig config;
  config.threads = threads;
  config.duration_ns = 10'000'000;
  config.seed = 29;
  TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);
  (void)stress::run_stressor(*stressor, urts, config);
  logger.detach();
  return db.merge_stats();
}

TEST(RecordedMerge, OneWorkerConcatenatesEveryTableAndFourInterleave) {
  // One worker: its shard starts after the set-up shard ends, in all four
  // tables.  Four lockstep workers take turns, so their calls interleave.
  const auto one = merge_stats_attached_first(1);
  EXPECT_EQ(one.shards_merged, 2u);
  EXPECT_EQ(one.interleaved, 0u);
  const auto four = merge_stats_attached_first(4);
  EXPECT_EQ(four.shards_merged, 5u);
  EXPECT_EQ(four.interleaved, 1u);
}

// --- lazy loading ------------------------------------------------------------

/// A deterministic stress corpus at fleet-realistic shape: 5 ms windows keep
/// the profile section small while the event log dominates the store.
TraceDatabase make_soak_corpus() {
  const auto stressor = stress::make_stressor("ocall-storm");
  EXPECT_NE(stressor, nullptr);
  sgxsim::Urts urts(sgxsim::CostModel::preset(sgxsim::PatchLevel::kUnpatched),
                    sgxsim::Driver::kDefaultEpcPages);
  TraceDatabase db;
  stress::SoakConfig config;
  config.stress.threads = 2;
  config.stress.duration_ns = 20'000'000;
  config.stress.seed = 7;
  config.window_ns = 5'000'000;
  (void)stress::run_soak(*stressor, urts, db, config);
  EXPECT_GT(db.calls().size(), 500u);
  return db;
}

TEST(TraceStore, SoakCorpusRoundTripsAndSummaryReadsUnderTenPercent) {
  const TraceDatabase db = make_soak_corpus();
  const std::string before = flat_bytes(db, "store_soak_before.bin");

  StoreDir store("store_soak.store");
  tracedb::store::pack(db, store.path);
  const TraceDatabase back = tracedb::store::unpack(store.path);
  EXPECT_EQ(flat_bytes(back, "store_soak_after.bin"), before);

  // The headline acceptance pin: `sgxperf stats` on a packed store must read
  // less than 10% of the store's bytes.  This is the stats open path itself
  // (open_trace with the summary mask), not a reader micro-benchmark.
  tracedb::OpenStats stats;
  const TraceDatabase summary =
      tracedb::open_trace(store.path, tracedb::store::kSummarySections, &stats);
  EXPECT_TRUE(stats.store);
  EXPECT_GT(stats.total_bytes, 0u);
  EXPECT_LT(stats.bytes_read * 10, stats.total_bytes)
      << stats.bytes_read << " of " << stats.total_bytes << " bytes";
  // The event tables stayed on disk; the summary tables arrived whole.
  EXPECT_TRUE(summary.calls().empty());
  EXPECT_EQ(summary.latencies().size(), db.latencies().size());
  EXPECT_EQ(summary.windows().size(), db.windows().size());
  EXPECT_EQ(std::count(stats.sections_loaded.begin(), stats.sections_loaded.end(),
                       std::string("events")),
            0);
}

TEST(TraceStore, LoadEventsOverlappingSelectsOnlyMatchingChunks) {
  const TraceDatabase db = make_fixture_db();
  StoreDir store("store_range.store");
  tracedb::store::pack(db, store.path, {.chunk_calls = 2});  // 10 chunks

  tracedb::store::StoreReader reader(store.path);
  TraceDatabase window = reader.load(tracedb::store::kSectionMeta);
  // Calls start at 1000*(i+1); with chunk_calls = 2 each (ecall, ocall)
  // pair is its own chunk spanning [base, base+900].  Selection is
  // chunk-granular: [3000, 5000] touches exactly the chunks for bases
  // 3000/4000/5000 — six calls of the twenty.
  reader.load_events_overlapping(window, 3'000, 5'000);
  ASSERT_EQ(window.calls().size(), 6u);
  EXPECT_EQ(window.calls().front().start_ns, 3'000u);
  EXPECT_EQ(window.calls().back().start_ns, 5'100u);  // the ocall of base 5000
  // Every call that truly intersects the range is present.
  for (const auto& call : db.calls()) {
    if (call.end_ns < 3'000 || call.start_ns > 5'000) continue;
    const auto& loaded = window.calls();
    EXPECT_NE(std::find_if(loaded.begin(), loaded.end(),
                           [&](const CallRecord& c) {
                             return c.start_ns == call.start_ns && c.call_id == call.call_id;
                           }),
              loaded.end());
  }
  // Partial event reads are cheaper than the whole store.
  EXPECT_LT(reader.io().bytes_read, reader.io().total_bytes);
}

// --- corruption --------------------------------------------------------------

TEST(TraceStore, SectionCrcMismatchIsRejected) {
  const TraceDatabase db = make_fixture_db();
  StoreDir store("store_crc.store");
  tracedb::store::pack(db, store.path);

  const std::string profile_path = store.path + "/profile.db";
  std::string bytes = slurp(profile_path);
  ASSERT_GT(bytes.size(), 10u);
  bytes[10] ^= 0x01;  // damage the payload, leave the index intact
  spill(profile_path, bytes);

  const std::string what = expect_store_error(store.path, tracedb::store::kSummarySections);
  EXPECT_NE(what.find("section checksum mismatch"), std::string::npos) << what;
  // The undamaged sections still load on their own — per-section checksums
  // isolate the blast radius.
  tracedb::store::StoreReader reader(store.path);
  const TraceDatabase meta_only = reader.load(tracedb::store::kSectionMeta);
  EXPECT_EQ(meta_only.enclaves().size(), 1u);
}

TEST(TraceStore, TruncatedIndexHeaderIsRejected) {
  const TraceDatabase db = make_fixture_db();
  StoreDir store("store_idx.store");
  tracedb::store::pack(db, store.path);

  const std::string idx_path = store.path + "/" + tracedb::store::kIndexFileName;
  std::string bytes = slurp(idx_path);
  bytes.resize(16);  // past the magic, short of the fixed header
  spill(idx_path, bytes);

  const std::string what = expect_store_error(store.path, tracedb::store::kAllSections);
  EXPECT_NE(what.find("truncated index header"), std::string::npos) << what;
}

TEST(TraceStore, IndexChecksumMismatchIsRejected) {
  const TraceDatabase db = make_fixture_db();
  StoreDir store("store_idxcrc.store");
  tracedb::store::pack(db, store.path);

  const std::string idx_path = store.path + "/" + tracedb::store::kIndexFileName;
  std::string bytes = slurp(idx_path);
  bytes[bytes.size() / 2] ^= 0x40;
  spill(idx_path, bytes);

  const std::string what = expect_store_error(store.path, tracedb::store::kAllSections);
  EXPECT_NE(what.find("index checksum mismatch"), std::string::npos) << what;
}

TEST(TraceStore, OlderPayloadVersionIsRejected) {
  const TraceDatabase db = make_fixture_db();
  StoreDir store("store_payload.store");
  tracedb::store::pack(db, store.path);

  // Every store ever written carries the v6 payload; any other is corrupt.
  const std::string idx_path = store.path + "/" + tracedb::store::kIndexFileName;
  tracedb::store::StoreIndex index = tracedb::store::parse_index(slurp(idx_path));
  index.payload_version = 5;
  spill(idx_path, tracedb::store::encode_index(index));

  const std::string what = expect_store_error(store.path, tracedb::store::kAllSections);
  EXPECT_NE(what.find("unsupported payload version 5"), std::string::npos) << what;
}

TEST(TraceStore, TruncatedEventChunkIsRejected) {
  const TraceDatabase db = make_fixture_db();
  StoreDir store("store_chunk.store");
  tracedb::store::pack(db, store.path, {.chunk_calls = 3});

  // Cut bytes out of the chunk area while keeping the footer (and its CRC)
  // intact, then shrink the section length to match: the footer now
  // describes chunk extents that overrun the chunk area.
  const std::string events_path = store.path + "/events.db";
  const std::string bytes = slurp(events_path);
  constexpr std::size_t kCut = 16;
  ASSERT_GT(bytes.size(), kCut + 12);
  spill(events_path, bytes.substr(kCut));

  const std::string idx_path = store.path + "/" + tracedb::store::kIndexFileName;
  tracedb::store::StoreIndex index = tracedb::store::parse_index(slurp(idx_path));
  for (auto& section : index.sections) {
    if (section.id == tracedb::store::kEventsSection) section.length -= kCut;
  }
  spill(idx_path, tracedb::store::encode_index(index));

  const std::string what = expect_store_error(store.path, tracedb::store::kAllSections);
  EXPECT_NE(what.find("truncated event chunk"), std::string::npos) << what;
}

TEST(TraceStore, TruncatedEventSectionIsRejected) {
  const TraceDatabase db = make_fixture_db();
  StoreDir store("store_evtail.store");
  tracedb::store::pack(db, store.path);

  // Chopping the file tail destroys the footer-length trailer; the mapped
  // section is then shorter than the index says.
  const std::string events_path = store.path + "/events.db";
  const std::string bytes = slurp(events_path);
  spill(events_path, bytes.substr(0, bytes.size() - 8));

  const std::string what = expect_store_error(store.path, tracedb::store::kAllSections);
  EXPECT_NE(what.find("truncated section file"), std::string::npos) << what;
}

TEST(TraceStore, WrappingExtentsAreRejected) {
  const TraceDatabase db = make_fixture_db();
  StoreDir store("store_wrap.store");
  tracedb::store::pack(db, store.path);

  // A section offset whose sum with the length wraps past 2^64.
  const std::string idx_path = store.path + "/" + tracedb::store::kIndexFileName;
  const std::string idx = slurp(idx_path);
  tracedb::store::StoreIndex index = tracedb::store::parse_index(idx);
  for (auto& section : index.sections) {
    if (section.id == tracedb::store::kMetaSection) {
      section.offset = ~std::uint64_t{0};
      section.length = 2;
    }
  }
  spill(idx_path, tracedb::store::encode_index(index));
  EXPECT_NE(expect_store_error(store.path, tracedb::store::kSectionMeta)
                .find("truncated section file"),
            std::string::npos);
  spill(idx_path, idx);

  // A footer length that wraps when the 8-byte trailer is added to it.
  const std::string events_path = store.path + "/events.db";
  std::string events = slurp(events_path);
  const std::uint64_t huge = ~std::uint64_t{0} - 7;
  std::memcpy(events.data() + events.size() - 8, &huge, 8);
  spill(events_path, events);
  EXPECT_NE(expect_store_error(store.path, tracedb::store::kAllSections)
                .find("truncated event section"),
            std::string::npos);
}

TEST(TraceStore, ImplausibleDirectoryCountsAreRejected) {
  const TraceDatabase db = make_fixture_db();
  StoreDir store("store_counts.store");
  tracedb::store::pack(db, store.path, {.chunk_calls = 3});

  const std::string events_path = store.path + "/events.db";
  const std::string idx_path = store.path + "/" + tracedb::store::kIndexFileName;
  const std::string events = slurp(events_path);
  const std::string idx = slurp(idx_path);
  std::uint64_t footer_len;
  std::memcpy(&footer_len, events.data() + events.size() - 8, 8);
  const std::size_t footer_at = events.size() - 8 - footer_len;
  const auto chunks =
      tracedb::store::parse_footer(events.data() + footer_at, footer_len, footer_at);
  ASSERT_GT(chunks.size(), 1u);

  // Writes a rewritten directory and re-checksums the footer and the index,
  // so the directory bound is the check that fires.  The reader sizes its
  // tables from these counts: a lying one must be a typed error, never a
  // huge allocation.
  const auto load_with_footer =
      [&](const std::vector<tracedb::store::ChunkDirEntry>& lying) -> std::string {
    const std::string footer = tracedb::store::encode_footer(lying);
    EXPECT_EQ(footer.size(), footer_len);
    spill(events_path, events.substr(0, footer_at) + footer + events.substr(events.size() - 8));
    tracedb::store::StoreIndex index = tracedb::store::parse_index(idx);
    for (auto& section : index.sections) {
      if (section.id == tracedb::store::kEventsSection) {
        section.crc = support::crc32(footer.data(), footer.size());
      }
    }
    spill(idx_path, tracedb::store::encode_index(index));
    try {
      return expect_store_error(store.path, tracedb::store::kAllSections);
    } catch (const std::bad_alloc&) {
      ADD_FAILURE() << "a lying directory reached an allocation";
      return {};
    }
  };
  const auto load_with_calls = [&](std::uint64_t n_calls) {
    auto lying = chunks;
    lying[0].n_calls = n_calls;
    return load_with_footer(lying);
  };

  EXPECT_NE(load_with_calls(std::uint64_t{1} << 40).find("implausible"), std::string::npos);

  // The chunk frame is its magic, four row counts and a CRC; its rows fill
  // the rest exactly, so this is the most calls its length can hold.
  const auto& first = chunks[0];
  const std::uint64_t frame = 4 + 4 * 8 + 4;
  const std::uint64_t max_calls = (first.length - frame - first.n_aexs * 29 -
                                   first.n_paging * 25 - first.n_syncs * 25) / 46;
  ASSERT_EQ(max_calls, first.n_calls);
  EXPECT_NE(load_with_calls(max_calls + 1).find("implausible"), std::string::npos);

  // Every entry naming the largest chunk: each is in bounds and honest, but
  // together they claim more bytes, and so more rows, than the chunk area.
  const auto largest = *std::max_element(
      chunks.begin(), chunks.end(),
      [](const auto& a, const auto& b) { return a.length < b.length; });
  ASSERT_GT(largest.length * chunks.size(), footer_at);
  const std::vector<tracedb::store::ChunkDirEntry> repeated(chunks.size(), largest);
  EXPECT_NE(load_with_footer(repeated).find("implausible event chunk extents"),
            std::string::npos);
}

TEST(TraceStore, UnknownSectionIsSkippedForwardCompatibly) {
  const TraceDatabase db = make_fixture_db();
  const std::string before = flat_bytes(db, "store_fwd_before.bin");
  StoreDir store("store_fwd.store");
  tracedb::store::pack(db, store.path);

  // A future writer adds a section this reader has never heard of.  The id
  // is unknown, the payload is opaque — loads must succeed and ignore it.
  const std::string extra = "bytes from the future";
  spill(store.path + "/extra.db", extra);
  const std::string idx_path = store.path + "/" + tracedb::store::kIndexFileName;
  tracedb::store::StoreIndex index = tracedb::store::parse_index(slurp(idx_path));
  tracedb::store::IndexSection future;
  future.id = 200;
  future.file = "extra.db";
  future.length = extra.size();
  future.crc = support::crc32(extra.data(), extra.size());
  future.counts = {42};
  index.sections.push_back(future);
  spill(idx_path, tracedb::store::encode_index(index));

  tracedb::store::StoreReader reader(store.path);
  const TraceDatabase back = reader.load(tracedb::store::kAllSections);
  EXPECT_EQ(flat_bytes(back, "store_fwd_after.bin"), before);
  const auto info = reader.info();
  ASSERT_EQ(info.sections.size(), 5u);
  EXPECT_EQ(info.sections.back().name, "unknown");
  EXPECT_EQ(info.sections.back().file, "extra.db");
}

TEST(TraceStore, MissingSectionFileIsRejected) {
  const TraceDatabase db = make_fixture_db();
  StoreDir store("store_missing.store");
  tracedb::store::pack(db, store.path);
  fs::remove(store.path + "/alerts.db");
  const std::string what = expect_store_error(store.path, tracedb::store::kSummarySections);
  EXPECT_NE(what.find("cannot open"), std::string::npos) << what;
}

TEST(TraceStore, CallParentsThatAreNotEarlierCallsAreRejected) {
  // Out of range, self and forward parents, in the third of three chunks:
  // the bound is the call's index in the whole table, not in its chunk.
  for (const tracedb::CallIndex parent : {1'000'000'000ll, 4ll, 5ll}) {
    TraceDatabase db;
    for (std::uint64_t i = 0; i < 6; ++i) {
      CallRecord c;
      c.type = CallType::kEcall;
      c.thread_id = 1;
      c.enclave_id = 1;
      c.start_ns = 100 * i;
      c.end_ns = 100 * i + 50;
      if (i == 4) c.parent = parent;
      db.add_call(c);
    }
    StoreDir store("store_parent.store");
    tracedb::store::pack(db, store.path, {.chunk_calls = 2});
    const std::string what = expect_store_error(store.path, tracedb::store::kAllSections);
    EXPECT_NE(what.find("call 4 has parent " + std::to_string(parent)), std::string::npos)
        << what;
    // Summary sections do not decode calls, so they still open.
    tracedb::store::StoreReader reader(store.path);
    EXPECT_NO_THROW((void)reader.load(tracedb::store::kSummarySections));
  }
}

TEST(TraceStore, OutOfRangeEventKindBytesAreRejected) {
  OneChunkStore store("store_kinds.store");
  // make_fixture_db() has 20 calls, then 10 rows of each other table, after
  // the chunk's 36-byte header (magic and four row counts).  Each case sets
  // one kind byte of a table's last row one past its enum, and to 0xFF.
  const std::size_t calls_at = 36;
  const std::size_t aexs_at = calls_at + 20 * 46;
  const std::size_t paging_at = aexs_at + 10 * 29;
  const std::size_t syncs_at = paging_at + 10 * 25;
  const struct {
    std::size_t at;
    std::uint8_t first_bad;
    const char* what;
  } cases[] = {
      {aexs_at - 46 + 0x00, 2, "unknown call type"},
      {aexs_at - 46 + 0x01, 5, "unknown ocall kind"},
      {paging_at - 29 + 0x1C, 3, "unknown aex cause"},
      {syncs_at - 25 + 0x10, 2, "unknown paging direction"},
      {syncs_at + 9 * 25 + 0x00, 2, "unknown sync kind"},
  };
  const std::string payload = store.payload();
  ASSERT_EQ(payload.size(), syncs_at + 10 * 25);
  for (const auto& c : cases) {
    for (const std::uint8_t bad : {c.first_bad, std::uint8_t{0xFF}}) {
      std::string edited = payload;
      edited[c.at] = static_cast<char>(bad);
      store.write_chunk(edited);
      EXPECT_EQ(expect_store_error(store.dir.path, tracedb::store::kAllSections),
                "store: " + std::string(c.what) + " in event chunk")
          << "byte " << c.at << " = " << int{bad};
    }
  }
  // The unedited payload, re-checksummed the same way, still loads.
  store.write_chunk(payload);
  tracedb::store::StoreReader reader(store.dir.path);
  EXPECT_EQ(reader.load(tracedb::store::kAllSections).calls().size(), 20u);
}

// --- kind bytes of the counted tables ------------------------------------------
//
// Call names, latencies, window sites and alerts carry a CallType byte and
// metric series a MetricKind byte.  Each case finds one row of
// make_fixture_db() by a distinctive run of its encoded fields (the same
// bytes in the flat file and in the store section that holds the table),
// sets the kind byte just before that run one past its enum and to 0xFF, and
// expects both formats to refuse the load with a typed error.

std::string le32(std::uint32_t v) { return std::string(reinterpret_cast<const char*>(&v), 4); }
std::string le64(std::uint64_t v) { return std::string(reinterpret_cast<const char*>(&v), 8); }

/// Offset of the byte before the only occurrence of `fields` in `bytes`,
/// npos if `fields` does not occur.
std::size_t kind_byte_at(const std::string& bytes, const std::string& fields) {
  const std::size_t at = bytes.find(fields);
  if (at == std::string::npos) return at;
  EXPECT_EQ(bytes.find(fields, at + 1), std::string::npos) << "ambiguous row anchor";
  EXPECT_GT(at, 0u);
  return at - 1;
}

void expect_kind_byte_rejected(const std::string& fields, std::uint8_t original,
                               std::uint8_t first_bad, const std::string& what) {
  // ctest runs each case in its own process, in parallel: name files apart.
  const std::string tag = ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const TraceDatabase db = make_fixture_db();
  const std::string flat = flat_bytes(db, tag + "_src.bin");
  const std::size_t flat_at = kind_byte_at(flat, fields);
  ASSERT_NE(flat_at, std::string::npos) << what;
  ASSERT_EQ(static_cast<std::uint8_t>(flat[flat_at]), original) << what;

  StoreDir store(tag + ".store");
  tracedb::store::pack(db, store.path);
  const std::string index_path = store.path + "/" + tracedb::store::kIndexFileName;
  const tracedb::store::StoreIndex index = tracedb::store::parse_index(slurp(index_path));
  std::size_t holder = index.sections.size();  // the section whose payload has the row
  std::size_t section_at = std::string::npos;
  for (std::size_t i = 0; i < index.sections.size(); ++i) {
    if (index.sections[i].id == tracedb::store::kEventsSection) continue;
    const std::size_t at = kind_byte_at(slurp(store.path + "/" + index.sections[i].file), fields);
    if (at == std::string::npos) continue;
    ASSERT_EQ(holder, index.sections.size()) << what << ": row in two sections";
    holder = i;
    section_at = at;
  }
  ASSERT_LT(holder, index.sections.size()) << what;
  const auto& section = index.sections[holder];
  const std::string section_path = store.path + "/" + section.file;
  const std::string payload = slurp(section_path);

  for (const std::uint8_t bad : {first_bad, std::uint8_t{0xFF}}) {
    std::string edited = flat;
    edited[flat_at] = static_cast<char>(bad);
    const std::string path = temp_path(tag + ".bin");
    spill(path, edited);
    std::string error;
    try {
      (void)TraceDatabase::load(path);
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
    fs::remove(path);
    EXPECT_EQ(error, "tracedb: " + what + " in trace file " + path) << int{bad};

    // The same byte in the store, with the section's checksum recomputed so
    // the decoder, not the CRC, refuses it.
    edited = payload;
    edited[section_at] = static_cast<char>(bad);
    spill(section_path, edited);
    tracedb::store::StoreIndex patched = index;
    patched.sections[holder].crc = support::crc32(edited.data(), edited.size());
    spill(index_path, tracedb::store::encode_index(patched));
    EXPECT_EQ(expect_store_error(store.path, tracedb::store::kAllSections),
              "store: " + what + " in " + tracedb::store::section_name(section.id) +
                  " section " + section.file)
        << int{bad};
  }
}

TEST(TraceStore, OutOfRangeCallNameTypeIsRejected) {
  // {1, ecall, 7, "process"}: the type byte precedes the call id.
  expect_kind_byte_rejected(le32(7) + le32(7) + "process", 0, 2, "unknown call type");
}

TEST(TraceStore, OutOfRangeMetricSeriesKindIsRejected) {
  // The gauge "epc_used": the kind byte precedes the name.
  expect_kind_byte_rejected(le32(8) + "epc_used", 1, 2, "unknown metric kind");
}

TEST(TraceStore, OutOfRangeLatencyTypeIsRejected) {
  // Ecall 7's latency row: call id, count 10, sum 9,000.
  expect_kind_byte_rejected(le32(7) + le64(10) + le64(9'000), 0, 2, "unknown call type");
}

TEST(TraceStore, OutOfRangeWindowSiteTypeIsRejected) {
  // Window 0's site row (call id, 10 calls, 0 AEXs, p50 900, p99 950), told
  // from window 1's by the next row's window index and enclave.
  expect_kind_byte_rejected(
      le32(7) + le64(10) + le64(0) + le64(900) + le64(950) + le32(1) + le64(1), 0, 2,
      "unknown call type");
}

TEST(TraceStore, OutOfRangeAlertTypeIsRejected) {
  // The short-calls alert: call id, onset 1,200, resolved 2,400.
  expect_kind_byte_rejected(le32(7) + le64(1'200) + le64(2'400), 0, 2, "unknown call type");
}

TEST(TraceStore, RebasedCallParentThatWouldOverflowIsRejected) {
  // The largest parent index a row can hold, plus a rebase of one from the
  // directory: the sum wraps to a negative index, which is not an earlier
  // call, instead of overflowing.
  OneChunkStore store("store_rebase.store");
  std::string payload = store.payload();
  const std::int64_t largest = INT64_MAX;
  std::memcpy(payload.data() + 36 + 0x12, &largest, 8);  // call 0's parent
  store.write_chunk(payload, 1);
  EXPECT_EQ(expect_store_error(store.dir.path, tracedb::store::kAllSections),
            "store: call 0 has parent " + std::to_string(INT64_MIN) +
                ", not an earlier call in event chunk");
}

TEST(TraceStore, EventChunkRowsCutShortAreRejected) {
  // Every cut inside the rows of a chunk, CRCs recomputed, so the rows stop
  // short of the counts in the chunk header and the directory.  The
  // directory check refuses counts that need more bytes than the chunk
  // holds, before any row is decoded from a raw pointer.
  OneChunkStore store("store_cut.store");
  const std::string payload = store.payload();
  for (std::size_t keep = 36; keep < payload.size(); ++keep) {
    store.write_chunk(payload.substr(0, keep));
    EXPECT_EQ(expect_store_error(store.dir.path, tracedb::store::kAllSections),
              "store: implausible event chunk row counts")
        << "chunk cut to " << keep << " bytes";
  }
}

// --- compaction --------------------------------------------------------------

TEST(TraceStore, CompactMergesSummariesAndRebasesEventChunks) {
  const TraceDatabase db1 = make_fixture_db();
  const TraceDatabase db2 = make_fixture_db();
  StoreDir in1("store_c_in1.store");
  StoreDir in2("store_c_in2.store");
  tracedb::store::pack(db1, in1.path, {.chunk_calls = 3});
  tracedb::store::pack(db2, in2.path, {.chunk_calls = 3});

  StoreDir out("store_c_out.store");
  tracedb::store::compact({in1.path, in2.path}, out.path);
  const TraceDatabase merged = tracedb::store::unpack(out.path);

  // Events: concatenated in input order with parent references rebased —
  // the second copy's rows resolve to its own ecalls, not the first's.
  ASSERT_EQ(merged.calls().size(), db1.calls().size() + db2.calls().size());
  const std::size_t shift = db1.calls().size();
  for (std::size_t i = 0; i < db2.calls().size(); ++i) {
    const auto& expected = db2.calls()[i];
    const auto& actual = merged.calls()[shift + i];
    EXPECT_EQ(actual.start_ns, expected.start_ns);
    if (expected.parent >= 0) {
      EXPECT_EQ(actual.parent, expected.parent + static_cast<tracedb::CallIndex>(shift));
    } else {
      EXPECT_EQ(actual.parent, tracedb::kNoParent);
    }
  }
  ASSERT_EQ(merged.aexs().size(), db1.aexs().size() + db2.aexs().size());
  EXPECT_EQ(merged.aexs().back().during_call,
            db2.aexs().back().during_call + static_cast<tracedb::CallIndex>(shift));

  // Summary: histograms summed, windows and alerts re-indexed past the first
  // input's window table, scalar counters added, duplicate metadata deduped.
  const auto* lat = merged.find_latency(1, CallType::kEcall, 7);
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 20u);
  EXPECT_EQ(lat->sum_ns, 18'000u);
  ASSERT_EQ(lat->buckets.size(), 2u);
  EXPECT_EQ(lat->buckets[0].second, 8u);
  ASSERT_EQ(merged.windows().size(), 4u);
  EXPECT_EQ(merged.windows()[2].window_index, 2u);
  ASSERT_EQ(merged.alerts().size(), 2u);
  EXPECT_EQ(merged.alerts()[1].window_index, 1u + 2u);
  EXPECT_EQ(merged.enclaves().size(), 1u);
  EXPECT_EQ(merged.order_rules().size(), 2u);
  EXPECT_EQ(merged.stream_dropped(), 6u);
  EXPECT_EQ(merged.window_period(), 1'000'000u);
}

TEST(TraceStore, CompactAcceptsFlatInputsAndNeedsAtLeastOne) {
  const TraceDatabase db = make_fixture_db();
  const std::string flat = temp_path("store_c_flat.bin");
  db.save(flat);
  StoreDir out("store_c_flatout.store");
  tracedb::store::compact({flat}, out.path);
  const TraceDatabase back = tracedb::store::unpack(out.path);
  EXPECT_EQ(back.calls().size(), db.calls().size());
  EXPECT_EQ(back.windows().size(), db.windows().size());
  fs::remove(flat);

  EXPECT_THROW(tracedb::store::compact({}, out.path), std::runtime_error);
}

// --- rewrite / generations ---------------------------------------------------

TEST(TraceStore, RepackBumpsGenerationAndRemovesStaleFiles) {
  const TraceDatabase db = make_fixture_db();
  StoreDir store("store_gen.store");
  tracedb::store::pack(db, store.path);
  {
    tracedb::store::StoreReader reader(store.path);
    EXPECT_EQ(reader.generation(), 0u);
  }
  ASSERT_TRUE(fs::exists(store.path + "/meta.db"));

  tracedb::store::pack(db, store.path);
  tracedb::store::StoreReader reader(store.path);
  EXPECT_EQ(reader.generation(), 1u);
  // Generation-1 files replace the gen-0 names; the old ones are gone.
  EXPECT_TRUE(fs::exists(store.path + "/meta.1.db"));
  EXPECT_FALSE(fs::exists(store.path + "/meta.db"));
  const std::string before = flat_bytes(db, "store_gen_before.bin");
  EXPECT_EQ(flat_bytes(reader.load(tracedb::store::kAllSections), "store_gen_after.bin"),
            before);
}

TEST(TraceStore, WriterCommitTwiceThrows) {
  StoreDir store("store_twice.store");
  tracedb::store::StoreWriter writer(store.path);
  const TraceDatabase empty;
  writer.commit(empty);
  EXPECT_THROW(writer.commit(empty), std::logic_error);
}

// --- open/save dispatch (the serve checkpoint path) --------------------------

TEST(TraceStore, SaveTraceAtomicWritesFlatAndStoreCheckpoints) {
  const TraceDatabase db = make_fixture_db();
  const std::string before = flat_bytes(db, "store_atomic_ref.bin");

  // Flat checkpoint: temp + rename, no droppings next to the target.
  const std::string flat = temp_path("store_atomic.bin");
  tracedb::save_trace_atomic(db, flat);
  EXPECT_EQ(slurp(flat), before);
  EXPECT_FALSE(fs::exists(flat + ".tmp"));
  fs::remove(flat);

  // ".store" checkpoint path: the same call writes a store directory, and a
  // second checkpoint atomically supersedes the first (the serve daemon's
  // repeated-checkpoint shape).
  StoreDir store("store_atomic.store");
  tracedb::save_trace_atomic(db, store.path);
  tracedb::save_trace_atomic(db, store.path);
  EXPECT_TRUE(tracedb::store::is_store(store.path));
  const TraceDatabase back = tracedb::store::unpack(store.path);
  EXPECT_EQ(flat_bytes(back, "store_atomic_after.bin"), before);
}

}  // namespace
