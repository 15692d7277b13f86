// The flat trace format (SGXPTRC6): every table round-trips byte-identically,
// only the current magic loads, and corrupt payloads (bad alert or rule
// kind, malformed window interval, dangling window reference, implausible
// row counts, truncation, a call parent that is not an earlier call, an
// event kind byte past its enum) are rejected with a typed error instead of
// being half-loaded or allocating without bound.  The fixtures are assembled
// by hand, independently of the row codec, so they also lock the byte layout.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "telemetry/hdr_histogram.hpp"
#include "tracedb/database.hpp"
#include "tracedb/shard.hpp"

namespace {

using tracedb::AlertKind;
using tracedb::AlertRecord;
using tracedb::CallRecord;
using tracedb::CallType;
using tracedb::MetricKind;
using tracedb::OrderRuleRecord;
using tracedb::TraceDatabase;
using tracedb::WindowRecord;
using tracedb::WindowSiteRecord;

/// A temporary file name unique to the running test: ctest runs the tests
/// of this file as parallel processes.
std::string temp_path(const char* name) {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  return (std::filesystem::temp_directory_path() /
          (std::string(test->test_suite_name()) + "." + test->name() + "." + name))
      .string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Loads `bytes` through a temporary file: the error message, or "" if the
/// file loaded.  Any exception other than std::runtime_error fails the test.
std::string load_error(const std::string& bytes) {
  const std::string path = temp_path("load.bin");
  spill(path, bytes);
  std::string what;
  try {
    (void)TraceDatabase::load(path);
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  std::filesystem::remove(path);
  return what;
}

bool mentions(const std::string& what, const std::string& needle) {
  return what.find(needle) != std::string::npos;
}

/// Little-endian byte assembler, independent of the serializer, so fixtures
/// can be truncated or corrupted at exact offsets.
struct Buf {
  std::string bytes;

  void raw(const void* p, std::size_t n) {
    bytes.append(static_cast<const char*>(p), n);
  }
  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
};

/// The magic, then every table before the window period, all empty: calls,
/// AEXs, paging, syncs, enclaves, call names, the dropped-event count, metric
/// series and samples, the stream-drop count, the HDR geometry, latencies.
/// `counts` (if given) receives the offset of each row count.
Buf empty_head(std::vector<std::size_t>* counts = nullptr) {
  Buf b;
  const auto count = [&] {
    if (counts != nullptr) counts->push_back(b.bytes.size());
    b.u64(0);
  };
  b.raw("SGXPTRC6", 8);
  for (int t = 0; t < 6; ++t) count();
  b.u64(0);  // dropped_events
  count();   // metric_series
  count();   // metric_samples
  b.u64(0);  // stream_dropped
  b.u8(static_cast<std::uint8_t>(telemetry::hdr::kSubBits));
  b.u8(static_cast<std::uint8_t>(telemetry::hdr::kMaxExponent));
  count();  // latencies
  return b;
}

/// A whole file with every table empty; `counts` gets all 13 count offsets.
std::string empty_file(std::vector<std::size_t>* counts = nullptr) {
  Buf b = empty_head(counts);
  b.u64(0);  // window_period
  for (int t = 0; t < 4; ++t) {  // windows, window_sites, alerts, order_rules
    if (counts != nullptr) counts->push_back(b.bytes.size());
    b.u64(0);
  }
  return b.bytes;
}

/// A minimal well-formed time series: one window, one site row, one alert.
/// The alert row is 42 bytes: kind(1) + enclave(8) + type(1) + call_id(4) +
/// onset(8) + resolved(8) + window(4) + detail(8).
void small_time_series(Buf& b) {
  b.u64(1'000'000);  // window_period
  b.u64(1);          // windows
  b.u32(0);          //   window_index
  b.u64(0);          //   start_ns
  b.u64(1'000'000);  //   end_ns
  b.u64(4);          //   calls
  b.u64(1);          //   aexs
  b.u64(0);          //   page_ins
  b.u64(0);          //   page_outs
  b.u64(0);          //   stream_dropped
  b.u64(2);          //   switchless_calls
  b.u64(1);          //   switchless_fallbacks
  b.u64(500);        //   switchless_wasted_ns
  b.u32(1);          //   active_alerts
  b.u64(1);          // window_sites
  b.u32(0);          //   window_index
  b.u64(1);          //   enclave_id
  b.u8(1);           //   type = ocall
  b.u32(7);          //   call_id
  b.u64(4);          //   calls
  b.u64(1);          //   aex_count
  b.u64(800);        //   p50_ns
  b.u64(1600);       //   p99_ns
  b.u64(1);          // alerts
  b.u8(0);           //   kind = short_calls
  b.u64(1);          //   enclave_id
  b.u8(1);           //   type = ocall
  b.u32(7);          //   call_id
  b.u64(123'456);    //   onset_ns
  b.u64(0);          //   resolved_ns (active)
  b.u32(0);          //   window_index
  b.u64(1000);       //   detail
}

/// small_time_series() followed by an empty order-rule table.
std::string time_series_fixture_bytes() {
  Buf b = empty_head();
  small_time_series(b);
  b.u64(0);  // order_rules
  return b.bytes;
}

/// No windows or sites, and one alert of `alert_kind` (a 42-byte row).
void alert_only_time_series(Buf& b, std::uint8_t alert_kind) {
  b.u64(0);           // window_period
  b.u64(0);           // windows
  b.u64(0);           // window_sites
  b.u64(1);           // alerts
  b.u8(alert_kind);   //   kind
  b.u64(1);           //   enclave_id
  b.u8(0);            //   type = ecall
  b.u32(2);           //   call_id
  b.u64(123'456);     //   onset_ns
  b.u64(0);           //   resolved_ns (orderliness alerts never auto-resolve)
  b.u32(0);           //   window_index
  b.u64((1ull << 32) | 3);  // detail: first thread 1, count 3
}

/// One rule row: enclave(8) + kind(1) + a(4) + b(4) = 17 bytes.
void rule_row(Buf& b, std::uint64_t enclave, std::uint8_t kind, std::uint32_t a,
              std::uint32_t b_id) {
  b.u64(enclave);
  b.u8(kind);
  b.u32(a);
  b.u32(b_id);
}

/// One orderliness alert plus a two-rule model.
std::string rules_fixture_bytes() {
  Buf b = empty_head();
  alert_only_time_series(b, 10);  // kReentrantEcall
  b.u64(2);                       // order_rules
  rule_row(b, 1, 0, 0, 0);        //   init 0
  rule_row(b, 1, 3, 0, 1);        //   edge 0 -> 1
  return b.bytes;
}

/// The four event tables with two rows each, assembled field by field, in
/// an otherwise empty file.  Rows are fixed-width: a call is 46 bytes, an
/// AEX 29, a paging or sync event 25.  Every row 0 holds its table's highest
/// kind byte, so the file is the upper edge of what loads.  `counts` (if
/// given) receives the offset of each table's row count.
std::string event_tables_fixture_bytes(std::vector<std::size_t>* counts = nullptr) {
  Buf b;
  const auto count = [&](std::uint64_t n) {
    if (counts != nullptr) counts->push_back(b.bytes.size());
    b.u64(n);
  };
  b.raw("SGXPTRC6", 8);
  count(2);  // calls
  for (const std::uint8_t i : {0, 1}) {
    b.u8(1 - i);          // type: ocall, then ecall
    b.u8(i == 0 ? 4 : 0);  // kind: wake_one_and_sleep, then generic
    b.u32(1 + i);         // thread_id
    b.u64(1);             // enclave_id
    b.u32(3 + i);         // call_id
    const std::int64_t parent = i == 0 ? -1 : 0;
    b.raw(&parent, 8);
    b.u64(100 + 50 * i);  // start_ns
    b.u64(200 + 50 * i);  // end_ns
    b.u32(i);             // aex_count
  }
  count(2);  // aexs
  for (const std::uint8_t i : {0, 1}) {
    b.u32(1);             // thread_id
    b.u64(1);             // enclave_id
    b.u64(120 + i);       // timestamp_ns
    b.u64(i);             // during_call
    b.u8(2 - i);          // cause: page_fault, then interrupt
  }
  count(2);  // paging
  for (const std::uint8_t i : {0, 1}) {
    b.u64(1);             // enclave_id
    b.u64(5 + i);         // page_number
    b.u8(1 - i);          // direction: page_out, then page_in
    b.u64(130 + i);       // timestamp_ns
  }
  count(2);  // syncs
  for (const std::uint8_t i : {0, 1}) {
    b.u8(1 - i);          // kind: wakeup, then sleep
    b.u32(1);             // thread_id
    b.u32(2);             // target_thread_id
    b.u64(1);             // enclave_id
    b.u64(140 + i);       // timestamp_ns
  }
  return b.bytes + empty_file().substr(8 + 4 * 8);
}

/// Saving `reloaded` again must reproduce `first`, the file it was loaded from.
void expect_resave_identical(const TraceDatabase& reloaded, const std::string& first) {
  const std::string path = temp_path("resaved.bin");
  reloaded.save(path);
  const std::string again = slurp(path);
  std::filesystem::remove(path);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, again);
  EXPECT_EQ(first.substr(0, 8), "SGXPTRC6");
}

TraceDatabase one_call_db() {
  TraceDatabase db;
  CallRecord c;
  c.type = CallType::kEcall;
  c.thread_id = 1;
  c.enclave_id = 1;
  c.call_id = 0;
  c.start_ns = 10;
  c.end_ns = 4215;
  db.add_call(c);
  return db;
}

// --- magic --------------------------------------------------------------------

TEST(FormatV3, RejectsUnknownMagic) {
  // Only the current format loads.  Every older magic is rejected, even in
  // front of a payload that loads under the current one.
  const std::string body = empty_file().substr(8);
  EXPECT_EQ(load_error("SGXPTRC6" + body), "");
  for (char version = '1'; version <= '5'; ++version) {
    const std::string what = load_error(std::string("SGXPTRC") + version + body);
    EXPECT_TRUE(mentions(what, "bad magic")) << version << ": " << what;
  }
}

// --- round trips ----------------------------------------------------------------

TEST(FormatV3, RoundTripsByteIdentically) {
  TraceDatabase original = one_call_db();
  const auto counter = original.add_metric_series(MetricKind::kCounter, "logger.events", "events");
  const auto gauge = original.add_metric_series(MetricKind::kGauge, "sgxsim.epc_resident", "pages");
  original.add_metric_sample({counter, 1000, 2.0});
  original.add_metric_sample({gauge, 1000, 512.0});
  original.add_metric_sample({counter, 2000, 17.5});  // fractional values survive
  // A real dropped event: seal the shard via merge, then append late.
  auto& shard = original.register_shard(/*owner_thread=*/1);
  original.merge_shards();
  EXPECT_EQ(shard.add_call(original.calls().front()), tracedb::kShardSealed);
  original.merge_shards();  // collects the drop into dropped_events()
  EXPECT_EQ(original.dropped_events(), 1u);

  const std::string path = temp_path("saved.bin");
  original.save(path);
  const std::string bytes = slurp(path);
  const TraceDatabase reloaded = TraceDatabase::load(path);
  std::filesystem::remove(path);
  EXPECT_EQ(reloaded.dropped_events(), 1u);
  ASSERT_EQ(reloaded.metric_series().size(), 2u);
  EXPECT_EQ(reloaded.metric_series()[0].name, "logger.events");
  EXPECT_EQ(reloaded.metric_series()[0].kind, MetricKind::kCounter);
  EXPECT_EQ(reloaded.metric_series()[1].name, "sgxsim.epc_resident");
  EXPECT_EQ(reloaded.metric_series()[1].kind, MetricKind::kGauge);
  ASSERT_EQ(reloaded.metric_samples().size(), 3u);
  EXPECT_EQ(reloaded.metric_samples()[0].timestamp_ns, 1000u);
  EXPECT_DOUBLE_EQ(reloaded.metric_samples()[2].value, 17.5);
  expect_resave_identical(reloaded, bytes);
}

TEST(FormatV3, SeriesRegistrationIsIdempotentByName) {
  TraceDatabase db;
  const auto a = db.add_metric_series(MetricKind::kCounter, "x", "u");
  const auto b = db.add_metric_series(MetricKind::kCounter, "x", "other");
  EXPECT_EQ(a, b);
  EXPECT_EQ(db.metric_series().size(), 1u);
  const auto c = db.add_metric_series(MetricKind::kGauge, "y", "");
  EXPECT_NE(a, c);
  EXPECT_EQ(db.metric_series().size(), 2u);
}

TEST(FormatV5, RoundTripsByteIdentically) {
  TraceDatabase original = one_call_db();
  original.set_window_period(1'000'000);
  WindowRecord w0;
  w0.window_index = 0;
  w0.start_ns = 0;
  w0.end_ns = 1'000'000;
  w0.calls = 3;
  w0.aexs = 1;
  w0.switchless_calls = 5;
  w0.switchless_fallbacks = 2;
  w0.switchless_wasted_ns = 900;
  w0.active_alerts = 1;
  original.add_window(w0);
  WindowRecord w1 = w0;
  w1.window_index = 1;
  w1.start_ns = 1'000'000;
  w1.end_ns = 2'000'000;
  w1.calls = 0;
  w1.active_alerts = 2;
  original.add_window(w1);

  WindowSiteRecord s;
  s.window_index = 1;
  s.enclave_id = 1;
  s.type = CallType::kOcall;
  s.call_id = 7;
  s.calls = 12;
  s.aex_count = 3;
  s.p50_ns = 750;
  s.p99_ns = 9'000;
  original.add_window_site(s);

  AlertRecord active;
  active.kind = AlertKind::kShortCalls;
  active.enclave_id = 1;
  active.type = CallType::kOcall;
  active.call_id = 7;
  active.onset_ns = 1'234'567;
  active.window_index = 1;
  active.detail = 812;
  original.add_alert(active);
  AlertRecord resolved = active;
  resolved.kind = AlertKind::kLatencyShift;
  resolved.resolved_ns = 2'000'000;
  original.add_alert(resolved);

  const std::string path = temp_path("saved.bin");
  original.save(path);
  const std::string bytes = slurp(path);
  const TraceDatabase reloaded = TraceDatabase::load(path);
  std::filesystem::remove(path);
  EXPECT_EQ(reloaded.window_period(), 1'000'000u);
  ASSERT_EQ(reloaded.windows().size(), 2u);
  EXPECT_EQ(reloaded.windows()[0].switchless_calls, 5u);
  EXPECT_EQ(reloaded.windows()[0].switchless_wasted_ns, 900u);
  EXPECT_EQ(reloaded.windows()[1].active_alerts, 2u);
  ASSERT_EQ(reloaded.window_sites().size(), 1u);
  EXPECT_EQ(reloaded.window_sites()[0].window_index, 1u);
  EXPECT_EQ(reloaded.window_sites()[0].p99_ns, 9'000u);
  ASSERT_EQ(reloaded.alerts().size(), 2u);
  EXPECT_EQ(reloaded.alerts()[0].kind, AlertKind::kShortCalls);
  EXPECT_EQ(reloaded.alerts()[0].resolved_ns, 0u);
  EXPECT_EQ(reloaded.alerts()[1].kind, AlertKind::kLatencyShift);
  EXPECT_EQ(reloaded.alerts()[1].resolved_ns, 2'000'000u);
  expect_resave_identical(reloaded, bytes);
}

TEST(FormatV6, RoundTripsByteIdentically) {
  TraceDatabase original = one_call_db();
  // One rule of every kind, spanning two enclaves.
  using Rule = OrderRuleRecord::Rule;
  std::vector<OrderRuleRecord> rules;
  rules.push_back({1, Rule::kInit, 0, 0});
  rules.push_back({1, Rule::kEntry, 0, 0});
  rules.push_back({1, Rule::kKnownEcall, 2, 0});
  rules.push_back({1, Rule::kEdge, 0, 2});
  rules.push_back({1, Rule::kReentrantOk, 3, 0});
  rules.push_back({2, Rule::kEntry, 0, 0});
  original.set_order_rules(rules);

  // One alert per orderliness kind: every kind byte must survive.
  for (const auto kind :
       {AlertKind::kOutOfOrderEcall, AlertKind::kReentrantEcall, AlertKind::kUseBeforeInit,
        AlertKind::kUseAfterDestroy, AlertKind::kPhaseViolation}) {
    AlertRecord a;
    a.kind = kind;
    a.enclave_id = 1;
    a.type = CallType::kEcall;
    a.call_id = static_cast<tracedb::CallId>(kind);
    a.onset_ns = 1'000 + static_cast<std::uint64_t>(kind);
    a.detail = (7ull << 32) | 2;
    original.add_alert(a);
  }

  const std::string path = temp_path("saved.bin");
  original.save(path);
  const std::string bytes = slurp(path);
  const TraceDatabase reloaded = TraceDatabase::load(path);
  std::filesystem::remove(path);
  ASSERT_EQ(reloaded.order_rules().size(), 6u);
  EXPECT_EQ(reloaded.order_rules()[0].rule, Rule::kInit);
  EXPECT_EQ(reloaded.order_rules()[3].rule, Rule::kEdge);
  EXPECT_EQ(reloaded.order_rules()[3].a, 0u);
  EXPECT_EQ(reloaded.order_rules()[3].b, 2u);
  EXPECT_EQ(reloaded.order_rules()[5].enclave_id, 2u);
  ASSERT_EQ(reloaded.alerts().size(), 5u);
  EXPECT_EQ(reloaded.alerts()[0].kind, AlertKind::kOutOfOrderEcall);
  EXPECT_EQ(reloaded.alerts()[4].kind, AlertKind::kPhaseViolation);
  EXPECT_EQ(reloaded.alerts()[1].detail, (7ull << 32) | 2);
  EXPECT_EQ(reloaded.alerts()[2].resolved_ns, 0u);
  expect_resave_identical(reloaded, bytes);
}

// --- hand-built fixtures --------------------------------------------------------

TEST(FormatV5, WellFormedFixtureLoads) {
  const std::string path = temp_path("fixture.bin");
  spill(path, time_series_fixture_bytes());
  const TraceDatabase db = TraceDatabase::load(path);
  std::filesystem::remove(path);
  ASSERT_EQ(db.windows().size(), 1u);
  ASSERT_EQ(db.window_sites().size(), 1u);
  ASSERT_EQ(db.alerts().size(), 1u);
  EXPECT_EQ(db.alerts()[0].onset_ns, 123'456u);
}

TEST(FormatV6, WellFormedFixtureLoads) {
  const std::string path = temp_path("fixture.bin");
  spill(path, rules_fixture_bytes());
  const TraceDatabase db = TraceDatabase::load(path);
  std::filesystem::remove(path);
  ASSERT_EQ(db.order_rules().size(), 2u);
  EXPECT_EQ(db.order_rules()[1].rule, OrderRuleRecord::Rule::kEdge);
  ASSERT_EQ(db.alerts().size(), 1u);
  EXPECT_EQ(db.alerts()[0].kind, AlertKind::kReentrantEcall);
}

TEST(FormatV6, AcceptsHighestAlertKindUnderV6Magic) {
  Buf b = empty_head();
  alert_only_time_series(b, 13);  // kPhaseViolation, the current ceiling
  b.u64(0);                       // order_rules
  const std::string path = temp_path("fixture.bin");
  spill(path, b.bytes);
  const TraceDatabase db = TraceDatabase::load(path);
  std::filesystem::remove(path);
  ASSERT_EQ(db.alerts().size(), 1u);
  EXPECT_EQ(db.alerts()[0].kind, AlertKind::kPhaseViolation);

  // ...and one past the ceiling throws.
  Buf bad = empty_head();
  alert_only_time_series(bad, 14);  // kAlertKindCount
  bad.u64(0);
  EXPECT_TRUE(mentions(load_error(bad.bytes), "unknown alert kind"));
}

// --- rejection paths ------------------------------------------------------------

TEST(FormatV5, RejectsUnknownAlertKindByte) {
  std::string bytes = time_series_fixture_bytes();
  // The alert row is the last one before the 8-byte order-rule count, and
  // its first byte is the kind.
  bytes[bytes.size() - 8 - 42] = static_cast<char>(14);  // kAlertKindCount
  EXPECT_TRUE(mentions(load_error(bytes), "unknown alert kind"));
}

TEST(FormatV5, RejectsWindowIntervalEndBeforeStart) {
  Buf b = empty_head();
  b.u64(1'000'000);  // window_period
  b.u64(1);          // windows
  b.u32(0);
  b.u64(2'000'000);  // start_ns
  b.u64(1'000'000);  // end_ns < start_ns: malformed
  for (int i = 0; i < 8; ++i) b.u64(0);
  b.u32(0);
  b.u64(0);  // window_sites
  b.u64(0);  // alerts
  b.u64(0);  // order_rules
  EXPECT_TRUE(mentions(load_error(b.bytes), "malformed window interval"));
}

TEST(FormatV5, RejectsSiteReferencingUnknownWindow) {
  Buf b = empty_head();
  b.u64(1'000'000);  // window_period
  b.u64(0);          // windows: none
  b.u64(1);          // window_sites: one, referencing window 3
  b.u32(3);
  b.u64(1);
  b.u8(0);
  b.u32(0);
  b.u64(1);
  b.u64(0);
  b.u64(100);
  b.u64(200);
  b.u64(0);  // alerts
  b.u64(0);  // order_rules
  EXPECT_TRUE(mentions(load_error(b.bytes), "references unknown window"));
}

TEST(FormatV5, RejectsImplausibleRowCounts) {
  Buf b = empty_head();
  b.u64(1'000'000);   // window_period
  b.u64(1ull << 33);  // windows count above the row ceiling
  EXPECT_TRUE(mentions(load_error(b.bytes), "implausible window count"));
}

TEST(FormatV5, RejectsTruncatedFiles) {
  const std::string full = time_series_fixture_bytes();
  // Cut mid-alert-row, at the start of the alert row, inside the window-site
  // count, and right after the magic: every prefix must throw, never
  // half-load.
  for (const std::size_t keep :
       {full.size() - 12, full.size() - 50, full.size() - 108, std::size_t{8}}) {
    EXPECT_NE(load_error(full.substr(0, keep)), "")
        << "prefix of " << keep << " bytes should be rejected";
  }
}

TEST(FormatV6, RejectsUnknownRuleKindByte) {
  std::string bytes = rules_fixture_bytes();
  // The rules table is last; each row is 17 bytes with the kind byte at
  // offset 8 within the row, so the second row's kind byte sits 9 bytes
  // before EOF.  Overwrite it with kOrderRuleKindCount.
  bytes[bytes.size() - 9] = static_cast<char>(5);
  EXPECT_TRUE(mentions(load_error(bytes), "unknown order-rule kind"));
}

TEST(FormatV6, RejectsImplausibleRuleCounts) {
  Buf b = empty_head();
  alert_only_time_series(b, 0);
  b.u64(1ull << 33);  // rule count above the row ceiling
  EXPECT_TRUE(mentions(load_error(b.bytes), "implausible order-rule count"));
}

TEST(FormatV6, RejectsOversizedCountsBeforeReserving) {
  // Every table's row count, set to 2^40 (past any allocation) and to 2^24
  // (a ~1 GB reservation for calls), in a file that ends right after that
  // count.  Each must be refused by the count check, before any reserve().
  std::vector<std::size_t> counts;
  const std::string full = empty_file(&counts);
  ASSERT_EQ(counts.size(), 13u);
  for (const std::size_t at : counts) {
    for (const std::uint64_t n : {std::uint64_t{1} << 40, std::uint64_t{1} << 24}) {
      std::string bytes = full.substr(0, at + 8);
      std::memcpy(bytes.data() + at, &n, sizeof(n));
      const std::string what = load_error(bytes);
      EXPECT_TRUE(mentions(what, "implausible")) << "count at byte " << at << " = " << n
                                                 << ": " << what;
    }
  }
}

/// Four flat top-level ecalls; call 2 then gets `parent`.
TraceDatabase four_calls_with_parent(tracedb::CallIndex parent) {
  TraceDatabase db;
  for (std::uint64_t i = 0; i < 4; ++i) {
    CallRecord c;
    c.type = CallType::kEcall;
    c.thread_id = 1;
    c.enclave_id = 1;
    c.start_ns = 100 * i;
    c.end_ns = 100 * i + 50;
    if (i == 2) c.parent = parent;
    db.add_call(c);
  }
  return db;
}

TEST(FormatV6, RejectsCallParentsThatAreNotEarlierCalls) {
  // Out of range, self, forward and a negative index other than kNoParent:
  // each would send consumers that index by parent out of bounds or into
  // unbounded recursion.
  for (const tracedb::CallIndex parent : {1'000'000'000ll, 2ll, 3ll, -7ll}) {
    const std::string path = temp_path("parent.bin");
    four_calls_with_parent(parent).save(path);
    const std::string what = load_error(slurp(path));
    std::filesystem::remove(path);
    EXPECT_TRUE(mentions(what, "call 2 has parent " + std::to_string(parent)))
        << parent << ": " << what;
  }
  const std::string path = temp_path("earlier.bin");
  four_calls_with_parent(1).save(path);
  EXPECT_EQ(load_error(slurp(path)), "");
  std::filesystem::remove(path);
}

TEST(FormatV6, RejectsTruncatedFiles) {
  const std::string full = rules_fixture_bytes();
  // Cut mid-rule-row, right before the rules table, and mid-count: every
  // prefix must throw, never half-load.
  for (const std::size_t keep :
       {full.size() - 4, full.size() - 17, full.size() - 38, full.size() - 40}) {
    EXPECT_NE(load_error(full.substr(0, keep)), "")
        << "prefix of " << keep << " bytes should be rejected";
  }

  // Every cut inside populated event tables, whose rows are decoded from a
  // raw pointer after one bounds check per table.  A cut inside a row count
  // is a truncation; a cut inside the rows leaves fewer bytes than the
  // count needs, which the count check refuses before any row is read.
  std::vector<std::size_t> counts;
  const std::string events = event_tables_fixture_bytes(&counts);
  ASSERT_EQ(counts.size(), 4u);
  const char* const tables[] = {"call", "aex", "paging", "sync"};
  const std::size_t enclave_count_at = counts[3] + 8 + 2 * 25;
  const std::string path = temp_path("load.bin");
  for (std::size_t keep = counts[0]; keep <= enclave_count_at; ++keep) {
    std::size_t t = 0;
    while (t + 1 < counts.size() && keep >= counts[t + 1]) ++t;
    const bool in_count = keep < counts[t] + 8 || keep == enclave_count_at;
    const std::string expected =
        in_count ? "tracedb: truncated trace file " + path
                 : "tracedb: implausible " + std::string(tables[t]) + " count in trace file " +
                       path;
    EXPECT_EQ(load_error(events.substr(0, keep)), expected) << "prefix of " << keep << " bytes";
  }
}

TEST(FormatV6, RejectsOutOfRangeEventKindBytes) {
  std::vector<std::size_t> counts;
  const std::string full = event_tables_fixture_bytes(&counts);
  ASSERT_EQ(counts.size(), 4u);
  {
    const std::string path = temp_path("fixture.bin");
    spill(path, full);
    const TraceDatabase db = TraceDatabase::load(path);
    std::filesystem::remove(path);
    ASSERT_EQ(db.calls().size(), 2u);
    EXPECT_EQ(db.calls()[0].kind, tracedb::OcallKind::kWakeOneAndSleep);
    EXPECT_EQ(db.calls()[1].parent, 0);
    ASSERT_EQ(db.aexs().size(), 2u);
    EXPECT_EQ(db.aexs()[0].cause, tracedb::AexCause::kPageFault);
    ASSERT_EQ(db.paging().size(), 2u);
    EXPECT_EQ(db.paging()[1].direction, tracedb::PageDirection::kPageIn);
    ASSERT_EQ(db.syncs().size(), 2u);
    EXPECT_EQ(db.syncs()[0].kind, tracedb::SyncKind::kWakeup);
  }

  // Each kind byte of the second row, set one past its enum and to 0xFF.
  const struct {
    std::size_t at;
    std::uint8_t first_bad;
    const char* what;
  } cases[] = {
      {counts[0] + 8 + 46 + 0x00, 2, "unknown call type"},
      {counts[0] + 8 + 46 + 0x01, 5, "unknown ocall kind"},
      {counts[1] + 8 + 29 + 0x1C, 3, "unknown aex cause"},
      {counts[2] + 8 + 25 + 0x10, 2, "unknown paging direction"},
      {counts[3] + 8 + 25 + 0x00, 2, "unknown sync kind"},
  };
  for (const auto& c : cases) {
    for (const std::uint8_t bad : {c.first_bad, std::uint8_t{0xFF}}) {
      std::string bytes = full;
      bytes[c.at] = static_cast<char>(bad);
      EXPECT_EQ(load_error(bytes),
                "tracedb: " + std::string(c.what) + " in trace file " + temp_path("load.bin"))
          << "byte " << c.at << " = " << int{bad};
    }
  }
}

}  // namespace
