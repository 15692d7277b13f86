// What-if replay engine: identity-replay validation on recorded workloads
// (demo, minikv, minidb), scenario passes (switchless, eliminate, merge,
// cost-profile swap, EPC resize), byte-identical results at any replay
// parallelism, analyser-attached speedup predictions, and a golden-file
// check of the `whatif --json` document.
//
// Compile with -DREPLAY_GOLDEN_GEN to get a standalone generator that prints
// the golden JSON to stdout (same handcrafted database, same scenarios).
#ifndef REPLAY_GOLDEN_GEN
#include <gtest/gtest.h>
#endif

#include <fstream>
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
  ReplayEngine engine(db);
  return replay::render_whatif_json(engine.validate(), engine.run_all(golden_scenarios()));
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
  ReplayEngine engine(db);
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

  const auto v = ReplayEngine(db).validate();
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

  const auto v = ReplayEngine(db).validate();
  EXPECT_TRUE(v.within(0.01)) << "span error " << v.span_error;
  EXPECT_EQ(v.replayed_span_ns, v.recorded_span_ns);
}

// --- scenario passes ----------------------------------------------------------

TEST(ReplayScenario, EmptyScenarioReproducesTheRecordedTimeline) {
  const TraceDatabase db = record_demo(2, 100);
  ReplayEngine engine(db);
  const auto r = engine.run(Scenario{});
  EXPECT_EQ(r.replayed_span_ns, r.recorded_span_ns);
  EXPECT_EQ(r.transitions_removed, 0u);
}

TEST(ReplayScenario, SwitchlessConversionRemovesTransitions) {
  const TraceDatabase db = record_demo(2, 100);
  ReplayEngine engine(db);
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
  ReplayEngine engine(db);  // recorded under the unpatched profile
  Scenario s;
  s.name = "l1tf";
  s.cost_profile = PatchLevel::kSpectreL1tf;
  const auto r = engine.run(s);
  EXPECT_GT(r.replayed_span_ns, r.recorded_span_ns);
  EXPECT_LT(r.speedup(), 1.0);
}

TEST(ReplayScenario, EpcGrowthRemovesReplayedFaults) {
  // Record an oversubscribed sweep: heap larger than the 192-page EPC.
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
  ASSERT_GT(db.paging().size(), 0u);

  ReplayConfig rcfg;
  rcfg.recorded_epc_pages = 192;
  ReplayEngine engine(db, rcfg);
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
  ReplayEngine engine(db);
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

// --- determinism --------------------------------------------------------------

TEST(ReplayDeterminism, ResultsAreByteIdenticalAtAnyReplayThreadCount) {
  const TraceDatabase db = record_demo(3, 120);
  const auto key = demo_ecall_key(db);
  auto scenarios = [&] {
    std::vector<Scenario> list;
    for (std::size_t w = 1; w <= 4; ++w) {
      Scenario s;
      s.name = "switchless x" + std::to_string(w);
      s.switchless.push_back({key, w});
      list.push_back(s);
    }
    Scenario el;
    el.name = "eliminate";
    el.eliminate.push_back({key});
    list.push_back(el);
    Scenario cp;
    cp.name = "l1tf";
    cp.cost_profile = PatchLevel::kSpectreL1tf;
    list.push_back(cp);
    return list;
  }();

  std::string first;
  for (const std::size_t threads : {1u, 2u, 7u}) {
    ReplayConfig rcfg;
    rcfg.threads = threads;
    ReplayEngine engine(db, rcfg);
    const std::string json =
        replay::render_whatif_json(engine.validate(), engine.run_all(scenarios));
    if (first.empty()) {
      first = json;
    } else {
      EXPECT_EQ(json, first) << "replay results diverged at " << threads << " threads";
    }
  }
}

// --- materialize + compare ----------------------------------------------------

TEST(ReplayMaterialize, MaterializedTraceDiffsLikeTheScenarioResult) {
  const TraceDatabase db = record_demo(2, 100);
  ReplayEngine engine(db);
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
