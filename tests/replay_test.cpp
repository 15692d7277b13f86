// What-if replay engine: identity-replay validation on recorded workloads
// (demo, minikv, minidb), scenario passes (switchless, eliminate, merge,
// cost-profile swap, EPC resize), byte-identical results at any replay
// parallelism, analyser-attached speedup predictions, and golden-file
// checks of the `whatif --json` document and of a scenario matrix over the
// lockstep stress traces (tests/golden/replay_matrix.txt).
//
// Compile with -DREPLAY_GOLDEN_GEN to get a standalone generator that prints
// the golden JSON to stdout (same handcrafted database, same scenarios).
#ifndef REPLAY_GOLDEN_GEN
#include <gtest/gtest.h>
#endif

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "replay/engine.hpp"
#include "replay/render.hpp"
#include "sgxsim/runtime.hpp"
#include "tracedb/database.hpp"
#include "tracedb/query.hpp"

#ifndef REPLAY_GOLDEN_GEN
#include "minidb/enclave_db.hpp"
#include "minidb/workload.hpp"
#include "minikv/driver.hpp"
#include "perf/analyzer.hpp"
#include "perf/compare.hpp"
#include "perf/logger.hpp"
#include "stress/stressor.hpp"
#include "tests/sim_helpers.hpp"
#endif

namespace {

using replay::ReplayConfig;
using replay::ReplayEngine;
using replay::Scenario;
using sgxsim::CostModel;
using sgxsim::PatchLevel;
using tracedb::CallKey;
using tracedb::CallType;
using tracedb::TraceDatabase;

/// Handcrafted deterministic trace for the golden-file check: two threads,
/// three ecall instances, one nested ocall.  All durations sit above the
/// unpatched transition floor so validation is silent.
TraceDatabase golden_db() {
  TraceDatabase db;
  db.add_enclave({/*enclave_id=*/1, "worker", /*created_ns=*/0, /*destroyed_ns=*/60'000,
                  /*tcs_count=*/2, /*size_bytes=*/1 << 20});
  db.add_call_name({1, CallType::kEcall, 0, "ecall_process"});
  db.add_call_name({1, CallType::kOcall, 0, "ocall_log"});

  tracedb::CallRecord e1;
  e1.type = CallType::kEcall;
  e1.thread_id = 11;
  e1.enclave_id = 1;
  e1.call_id = 0;
  e1.start_ns = 0;
  e1.end_ns = 10'000;
  db.add_call(e1);

  tracedb::CallRecord e2 = e1;
  e2.start_ns = 12'000;
  e2.end_ns = 24'000;
  const auto parent = db.add_call(e2);

  tracedb::CallRecord o1;
  o1.type = CallType::kOcall;
  o1.thread_id = 11;
  o1.enclave_id = 1;
  o1.call_id = 0;
  o1.parent = parent;
  o1.start_ns = 15'000;
  o1.end_ns = 18'000;
  db.add_call(o1);

  tracedb::CallRecord e3 = e1;
  e3.thread_id = 22;
  e3.start_ns = 5'000;
  e3.end_ns = 16'000;
  db.add_call(e3);
  return db;
}

std::vector<Scenario> golden_scenarios() {
  const CallKey ecall{1, CallType::kEcall, 0};
  const CallKey ocall{1, CallType::kOcall, 0};
  Scenario sw;
  sw.name = "switchless ecall_process x1";
  sw.switchless.push_back({ecall, 1});
  Scenario el;
  el.name = "eliminate ocall_log";
  el.eliminate.push_back({ocall});
  Scenario cp;
  cp.name = "cost-profile l1tf";
  cp.cost_profile = PatchLevel::kSpectreL1tf;
  return {sw, el, cp};
}

std::string golden_json() {
  const TraceDatabase db = golden_db();
  const auto index = tracedb::index_trace(db);
  ReplayEngine engine(db, index);
  std::vector<replay::ScenarioResult> results;
  for (const auto& s : golden_scenarios()) results.push_back(engine.run(s));
  return replay::render_whatif_json(engine.validate(), results);
}

}  // namespace

#ifdef REPLAY_GOLDEN_GEN

#include <cstdio>
int main() {
  std::fputs(golden_json().c_str(), stdout);
  std::fputs("\n", stdout);
  return 0;
}

#else  // the actual tests

namespace {

using namespace sgxsim;
using test_helpers::empty_ocall;
using test_helpers::make_enclave;

constexpr const char* kDemoEdl = R"(
enclave {
  trusted { public int ecall_with_ocall(void); };
  untrusted { void ocall_noop(void); };
};
)";

/// Records the CLI's demo workload: `threads` workers, each issuing `calls`
/// ecall+ocall pairs through the sharded logger.
TraceDatabase record_demo(std::size_t threads, std::size_t calls) {
  Urts urts;
  TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);

  EnclaveConfig config;
  config.name = "demo";
  config.tcs_count = threads + 1;
  const EnclaveId eid = make_enclave(urts, kDemoEdl, std::move(config));
  urts.enclave(eid).register_ecall("ecall_with_ocall", [](TrustedContext& ctx, void*) {
    ctx.work(500);
    return ctx.ocall(0, nullptr);
  });
  OcallTable table = make_ocall_table({&empty_ocall});

  const auto body = [&] {
    for (std::size_t i = 0; i < calls; ++i) urts.sgx_ecall(eid, 0, &table, nullptr);
  };
  std::vector<std::thread> workers;
  for (std::size_t t = 1; t < threads; ++t) workers.emplace_back(body);
  body();
  for (auto& w : workers) w.join();
  logger.detach();
  return db;
}

CallKey demo_ecall_key(const TraceDatabase& db) {
  const auto key = tracedb::find_call_by_name(db, 1, "ecall_with_ocall");
  EXPECT_TRUE(key.has_value());
  return *key;
}

// --- validation ---------------------------------------------------------------

TEST(ReplayValidation, DemoWorkloadReplaysWithinTolerance) {
  const TraceDatabase db = record_demo(4, 200);
  const auto index = tracedb::index_trace(db);
  ReplayEngine engine(db, index);
  const auto v = engine.validate();
  EXPECT_TRUE(v.within(0.01)) << "span error " << v.span_error;
  // The identity replay is exact by construction, not merely within 1%.
  EXPECT_EQ(v.replayed_span_ns, v.recorded_span_ns);
  EXPECT_EQ(v.ecalls_below_floor, 0u) << "recorded durations below the cost-model floor";
}

TEST(ReplayValidation, MinikvWorkloadReplaysWithinTolerance) {
  Urts urts;
  TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);
  {
    minikv::Store store(urts.clock());
    minikv::KvProxy proxy(urts, store);
    minikv::DriverConfig config;
    config.clients = 3;
    config.ops_per_client = 60;
    minikv::run_workload(proxy, config);
  }
  logger.detach();
  ASSERT_GT(db.calls().size(), 0u);

  const auto index = tracedb::index_trace(db);
  const auto v = ReplayEngine(db, index).validate();
  EXPECT_TRUE(v.within(0.01)) << "span error " << v.span_error;
  EXPECT_EQ(v.replayed_span_ns, v.recorded_span_ns);
}

TEST(ReplayValidation, MinidbWorkloadReplaysWithinTolerance) {
  Urts urts;
  TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);
  {
    minidb::HostVfs vfs(urts.clock());
    minidb::DbEnclave dbe(urts, vfs, minidb::WriteMode::kSeekThenWrite);
    dbe.open("/replay.db");
    minidb::CommitGenerator gen;
    for (int i = 0; i < 40; ++i) {
      dbe.begin();
      for (const auto& [k, val] : gen.make(static_cast<std::uint64_t>(i)).to_records()) {
        dbe.put_in_txn(k, val);
      }
      dbe.commit();
    }
    dbe.close_db();
  }
  logger.detach();
  ASSERT_GT(db.calls().size(), 0u);

  const auto index = tracedb::index_trace(db);
  const auto v = ReplayEngine(db, index).validate();
  EXPECT_TRUE(v.within(0.01)) << "span error " << v.span_error;
  EXPECT_EQ(v.replayed_span_ns, v.recorded_span_ns);
}

// --- scenario passes ----------------------------------------------------------

TEST(ReplayScenario, EmptyScenarioReproducesTheRecordedTimeline) {
  const TraceDatabase db = record_demo(2, 100);
  const auto index = tracedb::index_trace(db);
  ReplayEngine engine(db, index);
  const auto r = engine.run(Scenario{});
  EXPECT_EQ(r.replayed_span_ns, r.recorded_span_ns);
  EXPECT_EQ(r.transitions_removed, 0u);
}

TEST(ReplayScenario, SwitchlessConversionRemovesTransitions) {
  const TraceDatabase db = record_demo(2, 100);
  const auto index = tracedb::index_trace(db);
  ReplayEngine engine(db, index);
  Scenario s;
  s.name = "switchless";
  s.switchless.push_back({demo_ecall_key(db), 2});
  const auto r = engine.run(s);
  EXPECT_LT(r.replayed_span_ns, r.recorded_span_ns);
  EXPECT_GT(r.speedup(), 1.0);
  ASSERT_EQ(r.switchless.size(), 1u);
  EXPECT_EQ(r.switchless[0].served + r.switchless[0].fallbacks, 200u);
  EXPECT_EQ(r.transitions_removed, r.switchless[0].served);
  // The cost side: two workers were provisioned over the whole replayed span.
  EXPECT_GT(r.switchless[0].wasted_worker_ns, 0u);
}

TEST(ReplayScenario, CostProfileSwapSlowsTheTraceDown) {
  const TraceDatabase db = record_demo(2, 100);
  const auto index = tracedb::index_trace(db);
  ReplayEngine engine(db, index);  // recorded under the unpatched profile
  Scenario s;
  s.name = "l1tf";
  s.cost_profile = PatchLevel::kSpectreL1tf;
  const auto r = engine.run(s);
  EXPECT_GT(r.replayed_span_ns, r.recorded_span_ns);
  EXPECT_LT(r.speedup(), 1.0);
}

/// Records an oversubscribed sweep: two ecalls each touching a 256-page heap
/// on a machine with a 192-page EPC.
TraceDatabase record_epc_sweep() {
  constexpr const char* kSweepEdl = R"(
enclave {
  trusted { public int ecall_sweep(void); };
  untrusted {};
};
)";
  Urts urts(CostModel::preset(PatchLevel::kUnpatched), /*epc_pages=*/192);
  TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);
  {
    EnclaveConfig config;
    config.code_pages = 8;
    config.heap_pages = 256;
    config.stack_pages = 2;
    config.tcs_count = 1;
    const EnclaveId eid = make_enclave(urts, kSweepEdl, std::move(config));
    Enclave& enclave = urts.enclave(eid);
    OcallTable table = make_ocall_table({});
    enclave.register_ecall("ecall_sweep", [](TrustedContext& ctx, void*) {
      const auto base = ctx.enclave().heap_base_page() * kPageSize;
      for (std::size_t p = 0; p < 256; ++p) ctx.touch(base + p * kPageSize, 64,
                                                      MemAccess::kWrite);
      return SgxStatus::kSuccess;
    });
    urts.sgx_ecall(eid, 0, &table, nullptr);
    urts.sgx_ecall(eid, 0, &table, nullptr);
  }
  logger.detach();
  return db;
}

TEST(ReplayScenario, EpcGrowthRemovesReplayedFaults) {
  const TraceDatabase db = record_epc_sweep();
  ASSERT_GT(db.paging().size(), 0u);

  ReplayConfig rcfg;
  rcfg.recorded_epc_pages = 192;
  const auto index = tracedb::index_trace(db);
  ReplayEngine engine(db, index, rcfg);
  Scenario grow;
  grow.name = "epc x4";
  grow.epc_pages = 192 * 4;
  const auto r = engine.run(grow);
  EXPECT_GT(r.page_faults_before, 0u);
  EXPECT_LT(r.page_faults_after, r.page_faults_before);
  EXPECT_LT(r.replayed_span_ns, r.recorded_span_ns);

  Scenario same;
  same.name = "epc same";
  same.epc_pages = 192;
  const auto r2 = engine.run(same);
  EXPECT_EQ(r2.page_faults_after, r2.page_faults_before);
  EXPECT_EQ(r2.replayed_span_ns, r2.recorded_span_ns);
}

TEST(ReplaySweep, PicksTheSmallestWorkerCountAtPeakSpeedup) {
  const TraceDatabase db = record_demo(3, 80);
  const auto index = tracedb::index_trace(db);
  ReplayEngine engine(db, index);
  const auto sweep = engine.sweep_switchless(demo_ecall_key(db), 1, 4);
  ASSERT_EQ(sweep.points.size(), 4u);
  EXPECT_GE(sweep.best_workers, 1u);
  EXPECT_LE(sweep.best_workers, 4u);
  EXPECT_GE(sweep.best_speedup, 1.0);
  // best_workers really is the smallest count attaining the minimum span.
  const auto best_span = sweep.points[sweep.best_workers - 1].replayed_span_ns;
  for (std::size_t w = 1; w < sweep.best_workers; ++w) {
    EXPECT_GT(sweep.points[w - 1].replayed_span_ns, best_span);
  }
}

// --- behaviour locks ------------------------------------------------------------
// Exact results of the replay passes on fixed traces.  A faster pass must
// reproduce them.

/// Every field of one scenario result, on one line.
std::string fingerprint(const replay::ScenarioResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf, "%s|%llu|%llu|%llu|%llu|%llu", r.name.c_str(),
                static_cast<unsigned long long>(r.recorded_span_ns),
                static_cast<unsigned long long>(r.replayed_span_ns),
                static_cast<unsigned long long>(r.transitions_removed),
                static_cast<unsigned long long>(r.page_faults_before),
                static_cast<unsigned long long>(r.page_faults_after));
  std::string out = buf;
  for (const auto& o : r.switchless) {
    std::snprintf(buf, sizeof buf, "|%llu:%d:%u:%s:%zu:%llu:%llu:%llu:%llu",
                  static_cast<unsigned long long>(o.site.enclave_id),
                  static_cast<int>(o.site.type), o.site.call_id, o.site_name.c_str(), o.workers,
                  static_cast<unsigned long long>(o.served),
                  static_cast<unsigned long long>(o.fallbacks),
                  static_cast<unsigned long long>(o.busy_ns),
                  static_cast<unsigned long long>(o.wasted_worker_ns));
    out += buf;
  }
  return out;
}

/// Every field of a sweep: one line per point, then the verdict.
std::string fingerprint(const replay::SweepResult& sweep) {
  std::string out;
  for (const auto& p : sweep.points) out += fingerprint(p) + "\n";
  char buf[128];
  std::snprintf(buf, sizeof buf, "best %zu %.17g", sweep.best_workers, sweep.best_speedup);
  return out + buf;
}

/// Three threads, each issuing ten 12 us ecalls of one site (each with a
/// nested ocall) every 20 us, staggered by 3 us: one or two switchless
/// workers cannot keep up, three can.
TraceDatabase overlapping_db() {
  TraceDatabase db;
  db.add_call_name({1, CallType::kEcall, 0, "ecall_hot"});
  db.add_call_name({1, CallType::kOcall, 0, "ocall_io"});
  for (std::uint64_t k = 0; k < 10; ++k) {
    for (std::uint32_t t = 0; t < 3; ++t) {
      tracedb::CallRecord e;
      e.type = CallType::kEcall;
      e.thread_id = 100 + t;
      e.enclave_id = 1;
      e.call_id = 0;
      e.start_ns = 1'000 + k * 20'000 + t * 3'000;
      e.end_ns = e.start_ns + 12'000;
      const auto parent = db.add_call(e);
      tracedb::CallRecord o = e;
      o.type = CallType::kOcall;
      o.parent = parent;
      o.start_ns = e.start_ns + 6'000;
      o.end_ns = e.start_ns + 8'000;
      db.add_call(o);
    }
  }
  return db;
}

TEST(ReplayLocks, EpcPassAtEvictingAndRoomyCapacities) {
  const TraceDatabase db = record_epc_sweep();
  ReplayConfig rcfg;
  rcfg.recorded_epc_pages = 192;
  const auto index = tracedb::index_trace(db);
  ReplayEngine engine(db, index, rcfg);
  std::string got;
  for (const std::size_t pages : {96u, 192u, 256u, 768u}) {
    Scenario s;
    s.name = "epc " + std::to_string(pages);
    s.epc_pages = pages;
    got += fingerprint(engine.run(s));
    // The savings attributed to calls: each call's re-timed duration.
    const TraceDatabase after = engine.materialize(s);
    for (const auto& c : after.calls()) got += " " + std::to_string(c.duration());
    got += "\n";
  }
  EXPECT_EQ(got,
            "epc 96|15207931|15207931|0|520|520 7603624 7603624\n"
            "epc 192|15207931|15207931|0|520|520 7603624 7603624\n"
            "epc 256|15207931|15207931|0|520|520 7603624 7603624\n"
            "epc 768|15207931|11879931|0|520|260 7603624 4275624\n")
      << got;
}

/// Two enclaves, each with one long ecall (and a nested ocall) on its own
/// thread, and 600 page-ins drawn from 48 pages per enclave with a hot set,
/// some of them after every call ended (unattributed savings).
TraceDatabase scattered_faults_db() {
  TraceDatabase db;
  for (std::uint32_t e = 1; e <= 2; ++e) {
    tracedb::CallRecord c;
    c.type = CallType::kEcall;
    c.thread_id = e;
    c.enclave_id = e;
    c.start_ns = 100 * e;
    c.end_ns = 4'000'000 + 100'000 * e;
    const auto parent = db.add_call(c);
    tracedb::CallRecord o = c;
    o.type = CallType::kOcall;
    o.parent = parent;
    o.start_ns = 1'000'000;
    o.end_ns = 1'500'000;
    db.add_call(o);
  }
  std::uint64_t x = 12345;
  for (std::uint64_t i = 0; i < 600; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    tracedb::PagingRecord p;
    p.enclave_id = 1 + ((x >> 60) & 1);
    p.page_number = (x >> 59) % 3 == 0 ? (x >> 20) % 6 : (x >> 24) % 48;
    p.direction = (x >> 40) % 5 == 0 ? tracedb::PageDirection::kPageOut
                                     : tracedb::PageDirection::kPageIn;
    p.timestamp_ns = 200 + i * 8'000;
    db.add_paging(p);
  }
  return db;
}

TEST(ReplayLocks, EpcPassOnScatteredFaults) {
  const TraceDatabase db = scattered_faults_db();
  const auto index = tracedb::index_trace(db);
  ReplayEngine engine(db, index);
  std::string got;
  for (const std::size_t pages : {4u, 12u, 24u, 40u, 64u}) {
    Scenario s;
    s.name = "epc " + std::to_string(pages);
    s.epc_pages = pages;
    got += fingerprint(engine.run(s));
    const TraceDatabase after = engine.materialize(s);
    for (const auto& c : after.calls()) got += " " + std::to_string(c.duration());
    got += "\n";
  }
  EXPECT_EQ(got,
            "epc 4|4199900|3626300|0|464|394 3818300 436000 3777400 448800\n"
            "epc 12|4199900|2871100|0|464|284 3267900 436000 3124600 308000\n"
            "epc 24|4199900|2062300|0|464|177 2563900 320800 2651000 205600\n"
            "epc 40|4199900|1550300|0|464|107 2179900 308000 2279800 167200\n"
            "epc 64|4199900|1460700|0|464|93 2090300 308000 2279800 167200\n")
      << got;
}

TEST(ReplayLocks, SweepPointsWithAndWithoutLowCountFallbacks) {
  const TraceDatabase busy = overlapping_db();
  const auto busy_index = tracedb::index_trace(busy);
  const auto contended =
      ReplayEngine(busy, busy_index).sweep_switchless(CallKey{1, CallType::kEcall, 0}, 1, 6);
  EXPECT_EQ(fingerprint(contended),
            "switchless ecall_hot x1|198000|198000|10|0|0|1:0:0:ecall_hot:1:10:20:84150:113850\n"
            "switchless ecall_hot x2|198000|198000|20|0|0|1:0:0:ecall_hot:2:20:10:168300:227700\n"
            "switchless ecall_hot x3|198000|162150|30|0|0|1:0:0:ecall_hot:3:30:0:252450:234000\n"
            "switchless ecall_hot x4|198000|162150|30|0|0|1:0:0:ecall_hot:4:30:0:252450:396150\n"
            "switchless ecall_hot x5|198000|162150|30|0|0|1:0:0:ecall_hot:5:30:0:252450:558300\n"
            "switchless ecall_hot x6|198000|162150|30|0|0|1:0:0:ecall_hot:6:30:0:252450:720450\n"
            "best 3 1.2210915818686401")
      << fingerprint(contended);

  const TraceDatabase serial = record_demo(1, 60);
  const auto serial_index = tracedb::index_trace(serial);
  const auto idle =
      ReplayEngine(serial, serial_index).sweep_switchless(demo_ecall_key(serial), 1, 5);
  EXPECT_EQ(fingerprint(idle),
            "switchless ecall_with_ocall x1|671257|456157|60|0|0|1:0:0:ecall_with_ocall:1:60:0:"
            "415860:40297\n"
            "switchless ecall_with_ocall x2|671257|456157|60|0|0|1:0:0:ecall_with_ocall:2:60:0:"
            "415860:496454\n"
            "switchless ecall_with_ocall x3|671257|456157|60|0|0|1:0:0:ecall_with_ocall:3:60:0:"
            "415860:952611\n"
            "switchless ecall_with_ocall x4|671257|456157|60|0|0|1:0:0:ecall_with_ocall:4:60:0:"
            "415860:1408768\n"
            "switchless ecall_with_ocall x5|671257|456157|60|0|0|1:0:0:ecall_with_ocall:5:60:0:"
            "415860:1864925\n"
            "best 1 1.4715481731070663")
      << fingerprint(idle);
}

/// Records `cycles` 4-step cycles of the `mixed` stressor on one thread
/// (intensity 8, seed 7) with a 4 MiB EPC.
TraceDatabase record_mixed(std::size_t cycles) {
  Urts urts(CostModel::preset(PatchLevel::kUnpatched), /*epc_pages=*/1024);
  const auto stressor = stress::make_stressor("mixed");
  stress::StressConfig config;
  config.threads = 1;
  config.intensity = 8;
  config.seed = 7;
  stressor->prepare(urts, config);
  TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);
  for (std::uint64_t op = 0; op < cycles * 4; ++op) stressor->step(urts, 0, op);
  logger.detach();
  return db;
}

/// Everything the analyser reports about findings and predictions.
std::string findings_fingerprint(const perf::AnalysisReport& report) {
  std::string out;
  char buf[256];
  for (const auto& f : report.findings) {
    std::snprintf(buf, sizeof buf, "%s|%llu:%d:%u|%s|%.17g|", perf::to_string(f.kind),
                  static_cast<unsigned long long>(f.subject.enclave_id),
                  static_cast<int>(f.subject.type), f.subject.call_id, f.partner_name.c_str(),
                  f.severity);
    out += buf + f.detail;
    for (const auto& rec : f.recommendations) {
      std::snprintf(buf, sizeof buf, "|%s:%.17g:%zu:", perf::to_string(rec.action),
                    rec.predicted_speedup, rec.best_workers);
      out += buf + rec.scenario;
    }
    out += '\n';
  }
  return out;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char ch : s) h = (h ^ ch) * 0x100000001b3ull;
  return h;
}

TEST(ReplayLocks, AnalyzerFindingsAndPredictionsOnMixedTrace) {
  const TraceDatabase db = record_mixed(100);
  ASSERT_EQ(db.calls().size(), 10500u);
  const std::string fp = findings_fingerprint(perf::Analyzer(db).analyze());
  EXPECT_EQ(fnv1a(fp), 1066608448786348715ull) << fp;
}

/// Each enclave's EDL, keyed by enclave id.
using Interfaces = std::map<tracedb::EnclaveId, edl::InterfaceSpec>;

/// Records `stressor` with `threads` lockstep workers for 20 ms of virtual
/// time (seed 7) on a 4 MiB EPC, so the vm and mixed sweeps page.  When
/// `interfaces` is given, it receives every enclave's EDL as created.
TraceDatabase record_stress(const std::string& stressor_name, std::size_t threads,
                            Interfaces* interfaces = nullptr) {
  Urts urts(CostModel::preset(PatchLevel::kUnpatched), /*epc_pages=*/1024);
  const auto stressor = stress::make_stressor(stressor_name);
  stress::StressConfig config;
  config.threads = threads;
  config.duration_ns = 20'000'000;
  config.seed = 7;
  TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);
  stressor->prepare(urts, config);
  if (interfaces != nullptr) {
    for (const auto eid : urts.enclave_ids()) (*interfaces)[eid] = urts.enclave(eid).interface();
  }
  stress::run_stressor(*stressor, urts, config, /*already_prepared=*/true);
  logger.detach();
  return db;
}

/// The replay matrix of one trace: per call site, eliminate, merge, merge
/// with each indirect-parent site and switchless at 1-3 workers; then every
/// patch level, four EPC sizes and one scenario combining every pass.
std::vector<Scenario> matrix_scenarios(const TraceDatabase& db, const tracedb::TraceIndex& index) {
  const auto& calls = db.calls();
  const auto key_of = [](const tracedb::CallRecord& c) {
    return CallKey{c.enclave_id, c.type, c.call_id};
  };
  const auto name = [&](const CallKey& k) { return db.name_of(k.enclave_id, k.type, k.call_id); };
  std::vector<Scenario> out;
  std::optional<CallKey> first_ecall;
  std::optional<CallKey> first_ocall;
  for (const auto& [key, instances] : index.sites) {
    auto& first = key.type == CallType::kEcall ? first_ecall : first_ocall;
    if (!first) first = key;
    out.emplace_back().name = "eliminate " + name(key);
    out.back().eliminate.push_back({key});
    out.emplace_back().name = "merge " + name(key);
    out.back().merge.push_back({key, std::nullopt});
    std::set<CallKey> partners;
    for (const auto i : instances) {
      const auto ip = index.indirect[static_cast<std::size_t>(i)];
      if (ip != tracedb::kNoParent) partners.insert(key_of(calls[static_cast<std::size_t>(ip)]));
    }
    for (const auto& p : partners) {
      out.emplace_back().name = "merge " + name(key) + " into " + name(p);
      out.back().merge.push_back({key, p});
    }
    for (std::size_t w = 1; w <= 3; ++w) {
      out.emplace_back().name = "switchless " + name(key) + " x" + std::to_string(w);
      out.back().switchless.push_back({key, w});
    }
  }
  for (const auto level :
       {PatchLevel::kUnpatched, PatchLevel::kSpectre, PatchLevel::kSpectreL1tf}) {
    out.emplace_back().name = std::string("cost-profile ") + sgxsim::to_string(level);
    out.back().cost_profile = level;
  }
  for (const std::size_t pages : {1u, 64u, 2048u, 100000u}) {
    out.emplace_back().name = "epc " + std::to_string(pages);
    out.back().epc_pages = pages;
  }
  Scenario combined;
  combined.name = "combined";
  if (first_ecall) combined.switchless.push_back({*first_ecall, 2});
  if (first_ocall) {
    combined.eliminate.push_back({*first_ocall});
    combined.merge.push_back({*first_ocall, std::nullopt});
  }
  combined.cost_profile = PatchLevel::kSpectre;
  combined.epc_pages = 64;
  out.push_back(combined);
  return out;
}

/// One line per matrix scenario of every lockstep stress trace: the result
/// fields and the last end of the materialized trace.
std::string replay_matrix() {
  std::string out;
  char buf[256];
  for (const char* stressor : {"mixed", "sync", "ocall-storm", "cpu", "vm", "order"}) {
    for (const std::size_t threads : {1u, 4u}) {
      const TraceDatabase db = record_stress(stressor, threads);
      const auto index = tracedb::index_trace(db);
      const ReplayEngine engine(db, index);
      const auto v = engine.validate();
      std::snprintf(buf, sizeof buf,
                    "%s/%zu calls %zu paging %zu validate %llu %llu %llu %.17g %.17g\n", stressor,
                    threads, db.calls().size(), db.paging().size(),
                    static_cast<unsigned long long>(v.recorded_span_ns),
                    static_cast<unsigned long long>(v.replayed_span_ns),
                    static_cast<unsigned long long>(v.ecalls_below_floor), v.span_error,
                    v.floor_error);
      out += buf;
      for (const auto& s : matrix_scenarios(db, index)) {
        const TraceDatabase after = engine.materialize(s);
        std::uint64_t last_end = 0;
        for (const auto& c : after.calls()) last_end = std::max(last_end, c.end_ns);
        std::snprintf(buf, sizeof buf, "%s/%zu ", stressor, threads);
        out += buf + fingerprint(engine.run(s)) + " end " + std::to_string(last_end) + "\n";
      }
    }
  }
  return out;
}

TEST(ReplayLocks, ScenarioMatrixOnStressTracesMatchesGoldenFile) {
  const std::string golden_path = std::string(GOLDEN_DIR) + "/replay_matrix.txt";
  std::ifstream in(golden_path, std::ios::binary);
  const std::string expected{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
  const std::string got = replay_matrix();
  if (got != expected) {
    // Leave the actual matrix next to the test for a line diff.
    std::ofstream("replay_matrix.actual.txt", std::ios::binary) << got;
  }
  ASSERT_FALSE(expected.empty()) << "missing golden file: " << golden_path;
  EXPECT_EQ(got, expected) << "replay matrix drifted from " << golden_path
                           << "; the actual matrix is in replay_matrix.actual.txt";
}

/// Every field of an analysis report: overviews, per-site statistics and
/// findings with their recommendations.
std::string analysis_dump(const perf::AnalysisReport& r) {
  std::string out;
  char buf[512];
  const auto key = [&buf](const CallKey& k) {
    std::snprintf(buf, sizeof buf, "%llu:%d:%u", static_cast<unsigned long long>(k.enclave_id),
                  static_cast<int>(k.type), k.call_id);
    return std::string(buf);
  };
  std::snprintf(buf, sizeof buf, "dropped %llu stream_dropped %llu\n",
                static_cast<unsigned long long>(r.dropped_events),
                static_cast<unsigned long long>(r.stream_dropped));
  out += buf;
  for (const auto& ov : r.overviews) {
    std::snprintf(buf, sizeof buf,
                  "overview %llu defined %zu %zu called %zu %zu instances %zu %zu "
                  "below %.17g %.17g paging %zu %zu ",
                  static_cast<unsigned long long>(ov.enclave_id), ov.ecalls_defined,
                  ov.ocalls_defined, ov.ecalls_called, ov.ocalls_called, ov.ecall_instances,
                  ov.ocall_instances, ov.ecalls_below_10us, ov.ocalls_below_10us, ov.page_ins,
                  ov.page_outs);
    out += buf + ov.name + "\n";
  }
  for (const auto& cs : r.stats) {
    const auto& d = cs.duration_ns;
    out += "stats " + key(cs.key) + " " + cs.name;
    std::snprintf(buf, sizeof buf,
                  " count %zu mean %.17g median %.17g stddev %.17g min %.17g max %.17g "
                  "p90 %.17g p95 %.17g p99 %.17g sum %.17g aex %llu below %.17g "
                  "hdr %llu %llu %llu %llu\n",
                  d.count, d.mean, d.median, d.stddev, d.min, d.max, d.p90, d.p95, d.p99, d.sum,
                  static_cast<unsigned long long>(cs.aex_total), cs.fraction_below_10us,
                  static_cast<unsigned long long>(cs.p50_ns),
                  static_cast<unsigned long long>(cs.p90_ns),
                  static_cast<unsigned long long>(cs.p99_ns),
                  static_cast<unsigned long long>(cs.p999_ns));
    out += buf;
  }
  for (const auto& f : r.findings) {
    out += std::string("finding ") + perf::to_string(f.kind) + " " + key(f.subject) + " " +
           f.subject_name + " partner " + (f.partner ? key(*f.partner) : std::string("-")) +
           " " + f.partner_name;
    std::snprintf(buf, sizeof buf, " severity %.17g ", f.severity);
    out += buf + f.detail + "\n";
    for (const auto& rec : f.recommendations) {
      std::snprintf(buf, sizeof buf, "  rec %s speedup %.17g workers %zu ",
                    perf::to_string(rec.action), rec.predicted_speedup, rec.best_workers);
      out += buf + rec.scenario + "\n";
    }
  }
  return out;
}

/// The analyser's report on every lockstep stress trace, with predictions,
/// once without an EDL and once with each enclave's own interface.
std::string analyzer_matrix() {
  std::string out;
  char buf[256];
  for (const char* stressor :
       {"mixed", "sync", "ocall-storm", "cpu", "vm", "order", "order-clean"}) {
    for (const std::size_t threads : {1u, 4u}) {
      Interfaces interfaces;
      const TraceDatabase db = record_stress(stressor, threads, &interfaces);
      std::snprintf(buf, sizeof buf, "== %s/%zu calls %zu paging %zu enclaves %zu\n", stressor,
                    threads, db.calls().size(), db.paging().size(), interfaces.size());
      out += buf;
      out += "-- no edl\n" + analysis_dump(perf::Analyzer(db).analyze());
      perf::Analyzer with_edl(db);
      for (const auto& [eid, spec] : interfaces) with_edl.set_interface(eid, spec);
      // The edl pass goes through the prebuilt-index overload; the golden
      // holds either way.
      out += "-- edl\n" + analysis_dump(with_edl.analyze(tracedb::index_trace(db)));
    }
  }
  return out;
}

TEST(ReplayLocks, AnalyzerMatrixOnStressTracesMatchesGoldenFile) {
  const std::string golden_path = std::string(GOLDEN_DIR) + "/analyzer_matrix.txt";
  std::ifstream in(golden_path, std::ios::binary);
  const std::string expected{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
  const std::string got = analyzer_matrix();
  if (got != expected) {
    // Leave the actual matrix next to the test for a line diff.
    std::ofstream("analyzer_matrix.actual.txt", std::ios::binary) << got;
  }
  ASSERT_FALSE(expected.empty()) << "missing golden file: " << golden_path;
  EXPECT_EQ(got, expected) << "analyser matrix drifted from " << golden_path
                           << "; the actual matrix is in analyzer_matrix.actual.txt";
}

// --- closed-form span vs the re-timing walk -----------------------------------
// run() prices a scenario from the calls it touches; materialize() re-times
// every call.  Without an EPC pass (whose savings outside every call only
// run() sees) the two must agree on the span to the nanosecond.

/// materialize()'s last end minus the recorded start.
std::uint64_t materialized_span(const ReplayEngine& engine, const TraceDatabase& db,
                                const Scenario& s) {
  std::uint64_t first = std::numeric_limits<std::uint64_t>::max();
  for (const auto& c : db.calls()) first = std::min(first, c.start_ns);
  const TraceDatabase after = engine.materialize(s);
  std::uint64_t last = 0;
  for (const auto& c : after.calls()) last = std::max(last, c.end_ns);
  return last > first ? last - first : 0;
}

/// One ecall per thread on two threads.  Thread 1's ecall has 2 us of self
/// time around three nested 1 us ocalls, so eliminating the ocall site
/// (3 x 3,808 ns credited to the parent) clamps at its self time; a
/// top-level ocall on thread 2 takes its own credit.
TraceDatabase thin_parent_db() {
  TraceDatabase db;
  db.add_call_name({1, CallType::kEcall, 0, "ecall_thin"});
  db.add_call_name({1, CallType::kOcall, 0, "ocall_io"});
  tracedb::CallRecord e;
  e.type = CallType::kEcall;
  e.thread_id = 1;
  e.enclave_id = 1;
  e.start_ns = 1'000;
  e.end_ns = 6'000;
  const auto parent = db.add_call(e);
  for (std::uint64_t k = 0; k < 3; ++k) {
    tracedb::CallRecord o = e;
    o.type = CallType::kOcall;
    o.parent = parent;
    o.start_ns = 1'500 + k * 1'500;
    o.end_ns = o.start_ns + 1'000;
    db.add_call(o);
  }
  tracedb::CallRecord top_ocall = e;
  top_ocall.type = CallType::kOcall;
  top_ocall.thread_id = 2;
  top_ocall.start_ns = 2'000;
  top_ocall.end_ns = 9'000;
  db.add_call(top_ocall);
  tracedb::CallRecord later = e;  // thread 1 again, after a 4 us think time
  later.start_ns = 10'000;
  later.end_ns = 20'000;
  db.add_call(later);
  return db;
}

TEST(ReplayProperty, SpanMatchesWalkWhenDeltasExceedSelfTime) {
  const TraceDatabase db = thin_parent_db();
  const auto index = tracedb::index_trace(db);
  const ReplayEngine engine(db, index);
  const CallKey ecall{1, CallType::kEcall, 0};
  const CallKey ocall{1, CallType::kOcall, 0};
  std::vector<Scenario> scenarios(4);
  scenarios[0].eliminate.push_back({ocall});
  scenarios[1].eliminate.push_back({ecall});
  scenarios[2].eliminate = {{ecall}, {ocall}};
  scenarios[3].merge.push_back({ocall, std::nullopt});
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    SCOPED_TRACE(i);
    const auto r = engine.run(scenarios[i]);
    EXPECT_LT(r.replayed_span_ns, r.recorded_span_ns);
    EXPECT_EQ(r.replayed_span_ns, materialized_span(engine, db, scenarios[i]));
  }
  // The thin ecall's 2 us of self time absorb only 2 us of the 11.4 us
  // credited to it, and thread 1 sets the span: its second ecall ends 2 us
  // early.
  EXPECT_EQ(engine.run(scenarios[0]).replayed_span_ns, 19'000u - 2'000u);
}

TEST(ReplayProperty, SpanMatchesWalkUnderCostProfileSwap) {
  // Every call is touched, and with a slower profile every delta is positive.
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    const TraceDatabase db = record_stress("mixed", threads);
    const auto index = tracedb::index_trace(db);
    const ReplayEngine engine(db, index);
    for (const auto level : {PatchLevel::kSpectre, PatchLevel::kSpectreL1tf}) {
      Scenario s;
      s.cost_profile = level;
      const auto r = engine.run(s);
      EXPECT_GT(r.replayed_span_ns, r.recorded_span_ns);
      EXPECT_EQ(r.replayed_span_ns, materialized_span(engine, db, s));
    }
  }
}

TEST(ReplayProperty, SpanMatchesWalkOnFourThreadTrace) {
  const TraceDatabase db = record_stress("ocall-storm", 4);
  const auto index = tracedb::index_trace(db);
  const ReplayEngine engine(db, index);
  std::size_t checked = 0;
  for (const auto& [key, instances] : index.sites) {
    Scenario el;
    el.eliminate.push_back({key});
    Scenario merge;
    merge.merge.push_back({key, std::nullopt});
    Scenario sw;
    sw.switchless.push_back({key, 2});
    Scenario all;
    all.eliminate.push_back({key});
    all.switchless.push_back({key, 1});
    all.cost_profile = PatchLevel::kSpectre;
    for (const Scenario* s : {&el, &merge, &sw, &all}) {
      const auto r = engine.run(*s);
      EXPECT_EQ(r.replayed_span_ns, materialized_span(engine, db, *s));
      ++checked;
    }
  }
  EXPECT_GE(checked, 8u);
}

TEST(ReplayEngineInput, RejectsParentsThatAreNotEarlierCalls) {
  for (const tracedb::CallIndex bad : {tracedb::CallIndex{1}, tracedb::CallIndex{2},
                                       tracedb::CallIndex{99}, tracedb::CallIndex{-7}}) {
    TraceDatabase db;
    tracedb::CallRecord c;
    c.end_ns = 10;
    db.add_call(c);
    c.parent = bad;  // call 1: itself, a later call, out of range, negative
    db.add_call(c);
    c.parent = tracedb::kNoParent;
    db.add_call(c);
    const auto index = tracedb::index_trace(db);
    EXPECT_THROW((ReplayEngine{db, index}), std::invalid_argument) << bad;
  }
}

TEST(ReplayEngineInput, RejectsAnIndexOfAnotherTrace) {
  const TraceDatabase db = golden_db();
  const auto other = tracedb::index_trace(thin_parent_db());
  EXPECT_THROW((ReplayEngine{db, other}), std::invalid_argument);
}

// --- materialize + compare ----------------------------------------------------

TEST(ReplayMaterialize, MaterializedTraceDiffsLikeTheScenarioResult) {
  const TraceDatabase db = record_demo(2, 100);
  const auto index = tracedb::index_trace(db);
  ReplayEngine engine(db, index);
  Scenario s;
  s.name = "switchless";
  s.switchless.push_back({demo_ecall_key(db), 1});
  const auto result = engine.run(s);
  const TraceDatabase after = engine.materialize(s);

  EXPECT_EQ(after.calls().size(), db.calls().size());
  const auto comparison = perf::compare_traces(db, after);
  const auto speedup = comparison.speedup();
  ASSERT_TRUE(speedup.has_value());
  EXPECT_NEAR(*speedup, result.speedup(), 1e-9);
}

// --- analyser integration -----------------------------------------------------

TEST(ReplayPredictions, AnalyzerAttachesSpeedupsToRecommendations) {
  for (const std::size_t threads : {1u, 2u}) {
    SCOPED_TRACE(threads);
    const TraceDatabase db = record_demo(threads, 150);
    perf::Analyzer analyzer(db);
    const auto report = analyzer.analyze();
    ASSERT_FALSE(report.findings.empty());

    bool any_modeled = false;
    bool any_switchless = false;
    for (const auto& f : report.findings) {
      for (const auto& r : f.recommendations) {
        if (r.scenario.empty()) continue;
        any_modeled = true;
        EXPECT_GT(r.predicted_speedup, 0.0);
        if (r.action == perf::Recommendation::kSwitchless) {
          any_switchless = true;
          EXPECT_GE(r.best_workers, 1u);
          EXPECT_GT(r.predicted_speedup, 1.0);
        }
      }
    }
    EXPECT_TRUE(any_modeled) << "no recommendation carried a replay prediction";
    // Only the single-threaded trace is deterministic enough for the
    // switchless sweep: free-running threads share the virtual clock, so
    // each ecall is also charged the other threads' time, and whether the
    // site counts as short (the sweep's trigger) depends on the OS scheduler.
    if (threads == 1) {
      EXPECT_TRUE(any_switchless) << "short-ecall finding lacks a switchless sweep entry";
    }
  }
}

TEST(ReplayPredictions, PredictionsCanBeDisabled) {
  const TraceDatabase db = record_demo(2, 150);
  perf::AnalyzerConfig config;
  config.predict_speedups = false;
  perf::Analyzer analyzer(db, config);
  const auto report = analyzer.analyze();
  for (const auto& f : report.findings) {
    for (const auto& r : f.recommendations) {
      EXPECT_EQ(r.predicted_speedup, 1.0);
      EXPECT_TRUE(r.scenario.empty());
      EXPECT_NE(r.action, perf::Recommendation::kSwitchless);
    }
  }
}

// --- golden file --------------------------------------------------------------

TEST(ReplayGolden, WhatifJsonMatchesGoldenFile) {
  const std::string golden_path = std::string(GOLDEN_DIR) + "/whatif_demo.json";
  std::ifstream in(golden_path, std::ios::binary);
  const std::string expected{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
  ASSERT_FALSE(expected.empty()) << "missing golden file: " << golden_path;
  EXPECT_EQ(golden_json() + "\n", expected)
      << "whatif JSON drifted from " << golden_path
      << " — regenerate with -DREPLAY_GOLDEN_GEN if intentional";
}

}  // namespace

#endif  // REPLAY_GOLDEN_GEN
