// Interface-orderliness correctness:
//  * model plumbing — spec files and OrderRuleRecord rows round-trip the
//    OrderModel exactly, malformed specs are rejected with line numbers;
//  * learning — a crafted baseline yields the expected entries/edges/
//    reentrant sets, and the init phase is only inferred when the baseline
//    itself respects it;
//  * checker semantics — one unit test per violation kind on hand-fed event
//    sequences, plus the non-events (ocalls, unmodelled enclaves, recovery
//    edges, whitelisted re-entrancy);
//  * parity — on the order/order-clean stressors the online checker's
//    persisted alert set equals check_trace() over the merged trace
//    (modulo window_index, which only the online path assigns), and on the
//    organic workloads (demo / minikv / minidb) a model learned from the
//    run validates that same run cleanly on both paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "minidb/enclave_db.hpp"
#include "minidb/workload.hpp"
#include "minikv/driver.hpp"
#include "perf/logger.hpp"
#include "perf/online.hpp"
#include "perf/orderliness.hpp"
#include "sgxsim/runtime.hpp"
#include "stress/harness.hpp"
#include "stress/stressor.hpp"
#include "tests/sim_helpers.hpp"
#include "tracedb/database.hpp"

namespace {

using perf::EnclaveOrderModel;
using perf::OrderChecker;
using perf::OrderModel;
using perf::OrderViolation;
using tracedb::AlertKind;
using tracedb::AlertRecord;
using tracedb::CallRecord;
using tracedb::CallType;
using tracedb::TraceDatabase;

void expect_model_eq(const OrderModel& a, const OrderModel& b) {
  ASSERT_EQ(a.enclaves.size(), b.enclaves.size());
  for (const auto& [eid, ea] : a.enclaves) {
    const auto it = b.enclaves.find(eid);
    ASSERT_NE(it, b.enclaves.end()) << "enclave " << eid;
    const EnclaveOrderModel& eb = it->second;
    EXPECT_EQ(ea.has_init, eb.has_init) << "enclave " << eid;
    if (ea.has_init) {
      EXPECT_EQ(ea.init_call_id, eb.init_call_id) << "enclave " << eid;
    }
    EXPECT_EQ(ea.entries, eb.entries) << "enclave " << eid;
    EXPECT_EQ(ea.known, eb.known) << "enclave " << eid;
    EXPECT_EQ(ea.edges, eb.edges) << "enclave " << eid;
    EXPECT_EQ(ea.reentrant_ok, eb.reentrant_ok) << "enclave " << eid;
  }
}

/// A two-enclave model exercising every directive; known covers every id
/// named by init/entry/edge (as parsed and learned models always do).
OrderModel sample_model() {
  OrderModel m;
  auto& e1 = m.enclaves[1];
  e1.has_init = true;
  e1.init_call_id = 0;
  e1.entries = {0, 1};
  e1.known = {0, 1, 2, 5};
  e1.edges = {{0, 1}, {1, 2}, {2, 5}};
  e1.reentrant_ok = {3};
  auto& e2 = m.enclaves[2];
  e2.entries = {0};
  e2.known = {0};
  e2.edges = {{0, 0}};
  return m;
}

// --- model plumbing ---------------------------------------------------------

TEST(OrderModelSpec, RendersAndParsesBack) {
  const OrderModel m = sample_model();
  expect_model_eq(m, perf::parse_model_spec(perf::render_model_spec(m)));
}

TEST(OrderModelSpec, ParsesDirectivesAndComments) {
  const OrderModel m = perf::parse_model_spec(
      "# full-line comment\n"
      "\n"
      "enclave 7\n"
      "init 0   # trailing comment\n"
      "entry 1\n"
      "ecall 9\n"
      "edge 1 2\n"
      "reentrant 4\n");
  ASSERT_EQ(m.enclaves.size(), 1u);
  const auto& em = m.enclaves.at(7);
  EXPECT_TRUE(em.has_init);
  EXPECT_EQ(em.init_call_id, 0u);
  EXPECT_EQ(em.entries, (std::set<tracedb::CallId>{1}));
  // init/entry/edge ids are implicitly known; reentrant ids are not.
  EXPECT_EQ(em.known, (std::set<tracedb::CallId>{0, 1, 2, 9}));
  EXPECT_EQ(em.reentrant_ok, (std::set<tracedb::CallId>{4}));
}

TEST(OrderModelSpec, RejectsMalformedInput) {
  EXPECT_THROW((void)perf::parse_model_spec("entry 0\n"), std::runtime_error)
      << "directive before any enclave line";
  EXPECT_THROW((void)perf::parse_model_spec("enclave 1\nfrobnicate 0\n"), std::runtime_error)
      << "unknown directive";
  EXPECT_THROW((void)perf::parse_model_spec("enclave 1\nedge 0\n"), std::runtime_error)
      << "edge needs two ids";
  EXPECT_THROW((void)perf::parse_model_spec("enclave 1\nentry 0 1\n"), std::runtime_error)
      << "trailing token";
  EXPECT_THROW((void)perf::parse_model_spec("enclave 1\nentry 4294967296\n"),
               std::runtime_error)
      << "id out of u32 range";
  EXPECT_THROW((void)perf::parse_model_spec("enclave\n"), std::runtime_error)
      << "enclave needs an id";
}

TEST(OrderModelRules, FlattenAndRebuild) {
  const OrderModel m = sample_model();
  const auto rules = perf::rules_from_model(m);
  // init(1) + entries(2) + known(4) + edges(3) + reentrant(1) for enclave 1,
  // entries(1) + known(1) + edges(1) for enclave 2.
  EXPECT_EQ(rules.size(), 14u);
  expect_model_eq(m, perf::model_from_rules(rules));
}

// --- learning ---------------------------------------------------------------

CallRecord make_call(CallType type, std::uint64_t enclave, std::uint32_t call_id,
                     std::uint64_t thread, std::uint64_t start_ns, std::uint64_t end_ns,
                     tracedb::CallIndex parent = tracedb::kNoParent) {
  CallRecord c;
  c.type = type;
  c.enclave_id = enclave;
  c.call_id = call_id;
  c.thread_id = thread;
  c.start_ns = start_ns;
  c.end_ns = end_ns;
  c.parent = parent;
  return c;
}

TEST(OrderLearn, CraftedBaselineYieldsExpectedModel) {
  TraceDatabase db;
  // Thread 1: init(0) alone, then 1 -> 2 -> 1; an ocall under the last ecall
  // hosts a nested ecall 4.  Thread 2 starts later with ecall 1.
  db.add_call(make_call(CallType::kEcall, 1, 0, 1, 0, 100));       // index 0: init
  db.add_call(make_call(CallType::kEcall, 1, 1, 1, 200, 300));     // index 1
  db.add_call(make_call(CallType::kEcall, 1, 2, 1, 400, 500));     // index 2
  db.add_call(make_call(CallType::kEcall, 1, 1, 1, 600, 900));     // index 3
  db.add_call(make_call(CallType::kOcall, 1, 7, 1, 650, 850, 3));  // index 4: under 3
  db.add_call(make_call(CallType::kEcall, 1, 4, 1, 700, 800, 4));  // index 5: nested
  db.add_call(make_call(CallType::kEcall, 1, 1, 2, 250, 350));     // index 6: thread 2

  const OrderModel m = perf::learn_model(db);
  ASSERT_EQ(m.enclaves.size(), 1u);
  const auto& em = m.enclaves.at(1);
  EXPECT_TRUE(em.has_init);
  EXPECT_EQ(em.init_call_id, 0u);
  EXPECT_EQ(em.entries, (std::set<tracedb::CallId>{0, 1}));
  EXPECT_EQ(em.known, (std::set<tracedb::CallId>{0, 1, 2}));
  EXPECT_EQ(em.edges, (std::set<std::pair<tracedb::CallId, tracedb::CallId>>{
                          {0, 1}, {1, 2}, {2, 1}}));
  EXPECT_EQ(em.reentrant_ok, (std::set<tracedb::CallId>{4}));

  // A model learned from a trace must validate that same trace cleanly.
  EXPECT_TRUE(perf::check_trace(db, m).empty());
}

TEST(OrderLearn, NoInitPhaseWhenFirstCallRepeats) {
  TraceDatabase db;
  // The demo shape: the first ecall is just the steady-state call.
  db.add_call(make_call(CallType::kEcall, 1, 0, 1, 0, 100));
  db.add_call(make_call(CallType::kEcall, 1, 0, 1, 200, 300));
  const OrderModel m = perf::learn_model(db);
  EXPECT_FALSE(m.enclaves.at(1).has_init);
  EXPECT_TRUE(perf::check_trace(db, m).empty());
}

TEST(OrderLearn, NoInitPhaseWhenOtherCallOverlapsInit) {
  TraceDatabase db;
  // Ecall 1 starts before ecall 0 (the would-be init) completes.
  db.add_call(make_call(CallType::kEcall, 1, 0, 1, 0, 100));
  db.add_call(make_call(CallType::kEcall, 1, 1, 2, 50, 150));
  const OrderModel m = perf::learn_model(db);
  EXPECT_FALSE(m.enclaves.at(1).has_init);
  EXPECT_TRUE(perf::check_trace(db, m).empty());
}

// --- checker semantics ------------------------------------------------------

struct CheckerFixture {
  std::vector<OrderViolation> violations;
  OrderChecker checker;

  explicit CheckerFixture(const OrderModel& model)
      : checker(model, [this](const OrderViolation& v) { violations.push_back(v); }) {}

  /// Shorthand: top-level ecall into enclave 1.
  void ecall(std::uint32_t id, std::uint64_t thread, std::uint64_t start, std::uint64_t end) {
    checker.on_call(CallType::kEcall, 1, id, thread, start, end, /*nested=*/false);
  }

  std::vector<AlertKind> kinds() const {
    std::vector<AlertKind> out;
    for (const auto& v : violations) out.push_back(v.kind);
    return out;
  }
};

/// Enclave 1 without an init phase: entries {0}, edges 0->1->2 and 1->1,
/// reentrant whitelist {3}.
OrderModel steady_model() {
  OrderModel m;
  auto& em = m.enclaves[1];
  em.entries = {0};
  em.known = {0, 1, 2};
  em.edges = {{0, 1}, {1, 2}, {1, 1}};
  em.reentrant_ok = {3};
  return m;
}

TEST(OrderChecker, LegalSequenceIsClean) {
  CheckerFixture f(steady_model());
  f.ecall(0, 1, 0, 100);
  f.ecall(1, 1, 200, 300);
  f.ecall(1, 1, 400, 500);
  f.ecall(2, 1, 600, 700);
  f.checker.finish();
  EXPECT_TRUE(f.violations.empty());
}

TEST(OrderChecker, FlagsBadEntryBadEdgeAndUnknownId) {
  CheckerFixture f(steady_model());
  f.ecall(2, 1, 0, 100);    // entry must be 0
  f.ecall(2, 1, 200, 300);  // no edge 2 -> 2
  f.ecall(9, 1, 400, 500);  // unknown id
  f.checker.finish();
  EXPECT_EQ(f.kinds(), (std::vector<AlertKind>{AlertKind::kOutOfOrderEcall,
                                               AlertKind::kOutOfOrderEcall,
                                               AlertKind::kOutOfOrderEcall}));
  EXPECT_EQ(f.violations[0].call_id, 2u);
  EXPECT_EQ(f.violations[0].thread_id, 1u);
  EXPECT_EQ(f.violations[0].at_ns, 100u);
}

TEST(OrderChecker, RecoveryEdgeFromObservedIdSuppressesCascade) {
  CheckerFixture f(steady_model());
  f.ecall(1, 1, 0, 100);    // bad entry: flagged
  f.ecall(2, 1, 200, 300);  // edge 1 -> 2 is legal from the *observed* state
  f.checker.finish();
  EXPECT_EQ(f.kinds(), (std::vector<AlertKind>{AlertKind::kOutOfOrderEcall}));
}

TEST(OrderChecker, PerThreadSequencesAreIndependent) {
  CheckerFixture f(steady_model());
  f.ecall(0, 1, 0, 100);
  f.ecall(0, 2, 50, 150);   // thread 2 gets its own entry
  f.ecall(1, 2, 200, 300);  // 0 -> 1 on thread 2
  f.ecall(1, 1, 250, 350);  // 0 -> 1 on thread 1
  f.checker.finish();
  EXPECT_TRUE(f.violations.empty());
}

TEST(OrderChecker, NestedEcallNeedsWhitelistAndDoesNotAdvanceSequence) {
  CheckerFixture f(steady_model());
  f.ecall(0, 1, 0, 100);
  f.checker.on_call(CallType::kEcall, 1, 3, 1, 150, 180, /*nested=*/true);  // whitelisted
  f.checker.on_call(CallType::kEcall, 1, 2, 1, 200, 250, /*nested=*/true);  // not whitelisted
  f.ecall(1, 1, 300, 400);  // still edge 0 -> 1: nested calls left state alone
  f.checker.finish();
  EXPECT_EQ(f.kinds(), (std::vector<AlertKind>{AlertKind::kReentrantEcall}));
  EXPECT_EQ(f.violations[0].call_id, 2u);
}

TEST(OrderChecker, FlagsUseAfterDestroy) {
  CheckerFixture f(steady_model());
  f.checker.on_enclave_created(1, 0);
  f.ecall(0, 1, 10, 100);
  f.checker.on_enclave_destroyed(1, 500);
  f.ecall(1, 1, 600, 700);  // started after destruction
  f.checker.finish();
  EXPECT_EQ(f.kinds(), (std::vector<AlertKind>{AlertKind::kUseAfterDestroy}));
  // A call that started *before* the destroy timestamp is not dead-enclave
  // use, whatever order the events arrived in.
  CheckerFixture g(steady_model());
  g.checker.on_enclave_destroyed(1, 500);
  g.ecall(0, 1, 10, 100);
  g.checker.finish();
  EXPECT_TRUE(g.violations.empty());
}

/// steady_model() plus a lifecycle: init 0, steady calls 1/2 reached from it.
OrderModel lifecycle_model() {
  OrderModel m = steady_model();
  auto& em = m.enclaves[1];
  em.has_init = true;
  em.init_call_id = 0;
  em.entries = {0, 1};
  em.edges.insert({2, 0});  // recovery edge so a second init isolates
                            // kPhaseViolation from kOutOfOrderEcall
  return m;
}

TEST(OrderChecker, BuffersStragglersAndFlagsUseBeforeInit) {
  CheckerFixture f(lifecycle_model());
  f.ecall(1, 2, 10, 50);    // completes before the init: buffered
  f.ecall(0, 1, 0, 100);    // init lands -> the straggler flushes
  f.ecall(1, 2, 90, 200);   // started before init end: immediate violation
  f.ecall(1, 2, 300, 400);  // started after: clean
  f.checker.finish();
  EXPECT_EQ(f.kinds(), (std::vector<AlertKind>{AlertKind::kUseBeforeInit,
                                               AlertKind::kUseBeforeInit}));
  EXPECT_EQ(f.violations[0].at_ns, 50u);   // the buffered straggler
  EXPECT_EQ(f.violations[1].at_ns, 200u);  // the immediate one
}

TEST(OrderChecker, FinishFlushesWhenInitNeverCompletes) {
  CheckerFixture f(lifecycle_model());
  f.ecall(1, 2, 10, 50);
  f.ecall(2, 2, 60, 90);
  EXPECT_TRUE(f.violations.empty());  // still buffered
  f.checker.finish();
  EXPECT_EQ(f.kinds(), (std::vector<AlertKind>{AlertKind::kUseBeforeInit,
                                               AlertKind::kUseBeforeInit}));
}

TEST(OrderChecker, SecondInitIsAPhaseViolation) {
  CheckerFixture f(lifecycle_model());
  f.ecall(0, 1, 0, 100);
  f.ecall(1, 1, 200, 300);
  f.ecall(2, 1, 400, 500);
  f.ecall(0, 1, 600, 700);  // edge 2 -> 0 is legal, so only the phase trips
  f.checker.finish();
  EXPECT_EQ(f.kinds(), (std::vector<AlertKind>{AlertKind::kPhaseViolation}));
}

TEST(OrderChecker, IgnoresOcallsAndUnmodelledEnclaves) {
  CheckerFixture f(steady_model());
  f.checker.on_call(CallType::kOcall, 1, 99, 1, 0, 100, false);   // ocall: free-form
  f.checker.on_call(CallType::kEcall, 2, 99, 1, 0, 100, false);   // enclave 2: unmodelled
  f.checker.on_call(CallType::kEcall, 2, 98, 1, 200, 300, true);  // even nested
  f.checker.finish();
  EXPECT_TRUE(f.violations.empty());
}

TEST(OrderFolder, FoldsPerSiteWithThreadAndCount) {
  perf::OrderAlertFolder folder;
  OrderViolation v;
  v.kind = AlertKind::kOutOfOrderEcall;
  v.enclave_id = 1;
  v.call_id = 4;
  v.thread_id = 6;
  v.at_ns = 1'000;
  bool created = false;
  folder.fold(v, &created);
  EXPECT_TRUE(created);
  v.thread_id = 9;  // later violation at the same site, different thread
  v.at_ns = 2'000;
  const AlertRecord& a = folder.fold(v, &created);
  EXPECT_FALSE(created);
  EXPECT_EQ(a.onset_ns, 1'000u);                 // onset pinned to the first
  EXPECT_EQ(a.detail >> 32, 6u);                 // first offending thread
  EXPECT_EQ(a.detail & 0xffffffffull, 2u);       // violation count
  EXPECT_EQ(a.resolved_ns, 0u);                  // never auto-resolves
  ASSERT_EQ(folder.sorted().size(), 1u);
}

// --- parity: stressors ------------------------------------------------------

/// (kind, enclave, call_id, onset, resolved, detail) — everything but
/// window_index, which only the online path assigns.
using AlertFacts =
    std::tuple<std::uint8_t, std::uint64_t, std::uint32_t, std::uint64_t, std::uint64_t,
               std::uint64_t>;

std::set<AlertFacts> order_alert_facts(const std::vector<AlertRecord>& alerts) {
  std::set<AlertFacts> out;
  for (const auto& a : alerts) {
    if (a.kind < AlertKind::kOutOfOrderEcall) continue;
    out.insert({static_cast<std::uint8_t>(a.kind), a.enclave_id, a.call_id, a.onset_ns,
                a.resolved_ns, a.detail});
  }
  return out;
}

struct SoakParity {
  std::set<AlertFacts> online;
  std::set<AlertFacts> batch;
};

SoakParity run_order_soak(const std::string& name) {
  auto stressor = stress::make_stressor(name);
  EXPECT_NE(stressor, nullptr) << name;
  sgxsim::Urts urts(sgxsim::CostModel::preset(sgxsim::PatchLevel::kUnpatched));
  TraceDatabase db;
  stress::SoakConfig config;
  config.stress.threads = 2;
  config.stress.duration_ns = 20'000'000;
  config.stress.seed = 7;
  config.stress.lockstep = true;
  const auto result = stress::run_soak(*stressor, urts, db, config);
  EXPECT_EQ(result.session.stream_dropped, 0u) << name;
  EXPECT_EQ(result.session.sealed_dropped, 0u) << name;

  // persist() embedded the model as v6 rules; the batch side replays the
  // merged trace against that embedded model — exactly what a later
  // `sgxperf order check <trace>` does.
  const OrderModel model = perf::model_from_rules(db.order_rules());
  EXPECT_FALSE(model.empty()) << name;
  SoakParity out;
  out.online = order_alert_facts(db.alerts());
  out.batch = order_alert_facts(perf::check_trace(db, model));
  return out;
}

TEST(OrderParity, ViolatingStressorMatchesBatchAndCoversEveryKind) {
  const auto parity = run_order_soak("order");
  EXPECT_EQ(parity.online, parity.batch);
  std::set<std::uint8_t> kinds;
  for (const auto& f : parity.batch) kinds.insert(std::get<0>(f));
  EXPECT_EQ(kinds, (std::set<std::uint8_t>{
                       static_cast<std::uint8_t>(AlertKind::kOutOfOrderEcall),
                       static_cast<std::uint8_t>(AlertKind::kReentrantEcall),
                       static_cast<std::uint8_t>(AlertKind::kUseBeforeInit),
                       static_cast<std::uint8_t>(AlertKind::kUseAfterDestroy),
                       static_cast<std::uint8_t>(AlertKind::kPhaseViolation)}));
}

TEST(OrderParity, CleanStressorIsViolationFreeOnBothPaths) {
  const auto parity = run_order_soak("order-clean");
  EXPECT_TRUE(parity.online.empty());
  EXPECT_TRUE(parity.batch.empty());
}

// --- parity: organic workloads ----------------------------------------------

/// Records `workload` with a live subscription open, learns a model from the
/// merged trace, and validates that same run against it on both paths: the
/// batch replay and an online analyser fed the captured stream.  A learned
/// model never flags its own baseline.
template <typename Workload>
void expect_self_model_clean(Workload&& workload) {
  sgxsim::Urts urts;
  TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);
  auto sub = logger.subscribe("orderliness", 1 << 18);
  workload(urts);
  logger.detach();
  ASSERT_NE(sub, nullptr);

  const OrderModel learned = perf::learn_model(db);
  ASSERT_FALSE(learned.empty());
  EXPECT_TRUE(perf::check_trace(db, learned).empty());

  perf::OnlineConfig config;
  config.order = learned;
  perf::OnlineAnalyzer online(config);
  std::vector<perf::StreamEvent> batch;
  std::uint64_t end_ns = 0;
  while (sub->poll(batch, 4096) > 0) {
    for (const auto& ev : batch) end_ns = std::max(end_ns, ev.end_ns);
    online.feed(batch);
    batch.clear();
  }
  sub->close();
  online.finish(end_ns);
  EXPECT_EQ(sub->dropped(), 0u);
  EXPECT_TRUE(order_alert_facts(online.active_alerts()).empty());
}

constexpr char kDemoEdl[] = R"(
enclave {
  trusted {
    public int ecall_with_ocall(void);
  };
  untrusted {
    void ocall_noop(void);
  };
};
)";

sgxsim::SgxStatus demo_ocall(void*) { return sgxsim::SgxStatus::kSuccess; }

TEST(OrderParity, DemoSelfModelIsClean) {
  expect_self_model_clean([](sgxsim::Urts& urts) {
    using namespace sgxsim;
    EnclaveConfig config;
    config.name = "demo";
    config.tcs_count = 2;
    const EnclaveId eid = urts.create_enclave(std::move(config), edl::parse(kDemoEdl));
    urts.enclave(eid).register_ecall("ecall_with_ocall", [](TrustedContext& ctx, void*) {
      ctx.work(500);
      return ctx.ocall(0, nullptr);
    });
    OcallTable table = make_ocall_table({&demo_ocall});
    for (int i = 0; i < 120; ++i) urts.sgx_ecall(eid, 0, &table, nullptr);
  });
}

TEST(OrderParity, MiniKvSelfModelIsClean) {
  expect_self_model_clean([](sgxsim::Urts& urts) {
    minikv::Store store(urts.clock());
    minikv::KvProxy proxy(urts, store);
    minikv::DriverConfig config;
    config.clients = 2;
    config.ops_per_client = 300;
    minikv::run_workload(proxy, config);
  });
}

TEST(OrderParity, MiniDbSelfModelIsClean) {
  expect_self_model_clean([](sgxsim::Urts& urts) {
    minidb::HostVfs vfs(urts.clock());
    minidb::DbEnclave dbe(urts, vfs, minidb::WriteMode::kSeekThenWrite);
    dbe.open("/orderliness.db");
    minidb::CommitGenerator gen;
    for (std::uint64_t i = 0; i < 40; ++i) {
      dbe.begin();
      for (const auto& [k, v] : gen.make(i).to_records()) dbe.put_in_txn(k, v);
      dbe.commit();
    }
    dbe.close_db();
  });
}

}  // namespace
