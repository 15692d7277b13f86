// Event logger tests: sgx_ecall shadowing, ocall table rewriting with
// generated stubs, direct parents, sync classification, AEX counting and
// tracing, paging capture, the Table 2 overhead calibration, and the latency
// table the logger folds from the merged calls at detach and flush.
#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "perf/logger.hpp"
#include "telemetry/hdr_histogram.hpp"
#include "tests/sim_helpers.hpp"

namespace {

using namespace sgxsim;
using test_helpers::empty_ocall;
using test_helpers::FnMs;
using test_helpers::invoke_fn_ocall;
using test_helpers::make_enclave;
using tracedb::CallType;
using tracedb::OcallKind;

constexpr const char* kEdl = R"(
enclave {
  trusted {
    public int ecall_work(void);
    public int ecall_with_ocall(void);
  };
  untrusted {
    void ocall_noop(void);
    void ocall_fn(void);
  };
};
)";

class LoggerTest : public testing::Test {
 protected:
  void SetUp() override {
    logger_ = std::make_unique<perf::Logger>(db_);
    logger_->attach(urts_);
    eid_ = make_enclave(urts_, kEdl);
    table_ = make_ocall_table({&empty_ocall, &invoke_fn_ocall});
    Enclave& e = urts_.enclave(eid_);
    e.register_ecall("ecall_work", [](TrustedContext&, void*) { return SgxStatus::kSuccess; });
    e.register_ecall("ecall_with_ocall",
                     [](TrustedContext& ctx, void*) { return ctx.ocall(0, nullptr); });
  }

  void TearDown() override { logger_->detach(); }

  /// Merges the per-thread shards so the database can be inspected while
  /// the logger stays attached.
  tracedb::TraceDatabase& trace() {
    logger_->flush();
    return db_;
  }

  Urts urts_;
  tracedb::TraceDatabase db_;
  std::unique_ptr<perf::Logger> logger_;
  EnclaveId eid_ = 0;
  OcallTable table_;
};

TEST_F(LoggerTest, RecordsEcall) {
  EXPECT_EQ(urts_.sgx_ecall(eid_, 0, &table_, nullptr), SgxStatus::kSuccess);
  ASSERT_EQ(trace().calls().size(), 1u);
  const auto& c = db_.calls()[0];
  EXPECT_EQ(c.type, CallType::kEcall);
  EXPECT_EQ(c.call_id, 0u);
  EXPECT_EQ(c.enclave_id, eid_);
  EXPECT_EQ(c.parent, tracedb::kNoParent);
  EXPECT_GT(c.duration(), 0u);
}

TEST_F(LoggerTest, EcallOverheadMatchesTable2) {
  // Native ecall: 4,205 ns.  With logging: 5,572 ns (≈1,366 ns overhead).
  const auto t0 = urts_.clock().now();
  urts_.sgx_ecall(eid_, 0, &table_, nullptr);
  const auto elapsed = urts_.clock().now() - t0;
  EXPECT_EQ(elapsed, urts_.cost().full_ecall_ns() + urts_.cost().logger_ecall_pre_ns +
                         urts_.cost().logger_ecall_post_ns);
  EXPECT_EQ(elapsed, 5571u);  // 4205 + 1366
}

TEST_F(LoggerTest, OcallOverheadMatchesTable2) {
  const auto t0 = urts_.clock().now();
  urts_.sgx_ecall(eid_, 1, &table_, nullptr);
  const auto elapsed = urts_.clock().now() - t0;
  // ecall-with-logging + ocall + ocall-logging = 5,571 + 3,808 + 1,320.
  EXPECT_EQ(elapsed, 5571u + urts_.cost().full_ocall_ns() + 1320u);
}

TEST_F(LoggerTest, OcallGetsDirectParent) {
  urts_.sgx_ecall(eid_, 1, &table_, nullptr);
  ASSERT_EQ(trace().calls().size(), 2u);
  const auto& ecall = db_.calls()[0];
  const auto& ocall = db_.calls()[1];
  EXPECT_EQ(ecall.type, CallType::kEcall);
  EXPECT_EQ(ocall.type, CallType::kOcall);
  EXPECT_EQ(ocall.parent, 0);  // index of the ecall
  EXPECT_GE(ocall.start_ns, ecall.start_ns);
  EXPECT_LE(ocall.end_ns, ecall.end_ns);
}

TEST_F(LoggerTest, OcallDurationExcludesTransitions) {
  // §4.1.2: ocall timestamps are recorded outside the enclave, so an empty
  // ocall's traced duration is just the stub dispatch — far below the
  // transition cost.
  urts_.sgx_ecall(eid_, 1, &table_, nullptr);
  ASSERT_EQ(trace().calls().size(), 2u);
  const auto& ocall = db_.calls()[1];
  EXPECT_LT(ocall.duration(), urts_.cost().transition_round_trip_ns());
}

TEST_F(LoggerTest, StubTablesAreCachedPerTable) {
  auto& registry = perf::OcallStubRegistry::instance();
  urts_.sgx_ecall(eid_, 1, &table_, nullptr);
  const auto stubs_after_first = registry.stubs_in_use();
  EXPECT_EQ(stubs_after_first, table_.entries.size());
  urts_.sgx_ecall(eid_, 1, &table_, nullptr);
  urts_.sgx_ecall(eid_, 0, &table_, nullptr);
  EXPECT_EQ(registry.stubs_in_use(), stubs_after_first);  // created once (§4.1.2)
  EXPECT_EQ(registry.tables_cached(), 1u);
}

TEST_F(LoggerTest, NestedEcallDuringOcallGetsOcallParent) {
  constexpr const char* kNestedEdl = R"(
    enclave {
      trusted {
        public int ecall_outer(void);
        public int ecall_inner(void);
      };
      untrusted {
        void ocall_fn(void) allow (ecall_inner);
      };
    };
  )";
  EnclaveConfig config;
  config.tcs_count = 2;
  const EnclaveId eid = make_enclave(urts_, kNestedEdl, config);
  OcallTable table = make_ocall_table({&invoke_fn_ocall});
  Enclave& e = urts_.enclave(eid);
  e.register_ecall("ecall_inner",
                   [](TrustedContext&, void*) { return SgxStatus::kSuccess; });
  e.register_ecall("ecall_outer", [&, eid](TrustedContext& ctx, void*) {
    FnMs ms;
    ms.fn = [&, eid] { return urts_.sgx_ecall(eid, 1, &table, nullptr); };
    return ctx.ocall(0, &ms);
  });
  EXPECT_EQ(urts_.sgx_ecall(eid, 0, &table, nullptr), SgxStatus::kSuccess);

  ASSERT_EQ(trace().calls().size(), 3u);
  const auto& outer = db_.calls()[0];
  const auto& ocall = db_.calls()[1];
  const auto& inner = db_.calls()[2];
  EXPECT_EQ(outer.parent, tracedb::kNoParent);
  EXPECT_EQ(ocall.parent, 0);
  EXPECT_EQ(inner.type, CallType::kEcall);
  EXPECT_EQ(inner.parent, 1);  // direct parent is the ocall
}

TEST_F(LoggerTest, SyncOcallsClassified) {
  constexpr const char* kSyncEdl = R"(
    enclave {
      trusted { public int ecall_wake(void); };
      untrusted {};
    };
  )";
  const EnclaveId eid = make_enclave(urts_, kSyncEdl);
  OcallTable table = make_ocall_table({});
  Enclave& e = urts_.enclave(eid);
  const MutexId m = e.create_mutex();
  // Simulate the contended-unlock path: pre-insert a fake waiter so unlock
  // issues the wake-one ocall.
  e.register_ecall("ecall_wake", [&, m](TrustedContext& ctx, void*) {
    EXPECT_EQ(ctx.mutex_lock(m), SgxStatus::kSuccess);
    {
      std::lock_guard lock(e.sync_mu());
      e.mutex_state(m).waiters.push_back(12345);
    }
    return ctx.mutex_unlock(m);
  });
  EXPECT_EQ(urts_.sgx_ecall(eid, 0, &table, nullptr), SgxStatus::kSuccess);

  ASSERT_EQ(trace().calls().size(), 2u);
  const auto& wake = db_.calls()[1];
  EXPECT_EQ(wake.type, CallType::kOcall);
  EXPECT_EQ(wake.kind, OcallKind::kWakeOne);
  ASSERT_EQ(db_.syncs().size(), 1u);
  EXPECT_EQ(db_.syncs()[0].kind, tracedb::SyncKind::kWakeup);
  EXPECT_EQ(db_.syncs()[0].target_thread_id, 12345u);
  // The wake ocall carries the SDK name.
  EXPECT_EQ(db_.name_of(eid, CallType::kOcall, wake.call_id),
            "sgx_thread_set_untrusted_event_ocall");
}

TEST_F(LoggerTest, AexCounting) {
  Enclave& e = urts_.enclave(eid_);
  e.register_ecall("ecall_work", [](TrustedContext& ctx, void*) {
    for (int i = 0; i < 100'000; ++i) ctx.work(450);  // ~45 ms
    return SgxStatus::kSuccess;
  });
  urts_.sgx_ecall(eid_, 0, &table_, nullptr);
  ASSERT_EQ(trace().calls().size(), 1u);
  const auto& c = db_.calls()[0];
  EXPECT_GE(c.aex_count, 10u);
  EXPECT_LE(c.aex_count, 13u);
  EXPECT_TRUE(db_.aexs().empty());  // counting only, not tracing
}

TEST_F(LoggerTest, AexTracingRecordsTimestamps) {
  logger_->detach();
  perf::LoggerConfig config;
  config.trace_aex = true;
  logger_ = std::make_unique<perf::Logger>(db_, config);
  logger_->attach(urts_);

  Enclave& e = urts_.enclave(eid_);
  e.register_ecall("ecall_work", [](TrustedContext& ctx, void*) {
    for (int i = 0; i < 100'000; ++i) ctx.work(450);
    return SgxStatus::kSuccess;
  });
  urts_.sgx_ecall(eid_, 0, &table_, nullptr);
  ASSERT_FALSE(trace().aexs().empty());
  const auto& c = db_.calls().back();
  EXPECT_EQ(c.aex_count, db_.aexs().size());
  for (const auto& aex : db_.aexs()) {
    EXPECT_EQ(aex.during_call, static_cast<tracedb::CallIndex>(db_.calls().size() - 1));
    EXPECT_GE(aex.timestamp_ns, c.start_ns);
    EXPECT_LE(aex.timestamp_ns, c.end_ns);
  }
}

TEST_F(LoggerTest, PagingEventsCaptured) {
  // Rebuild a machine with a tiny EPC to force paging.
  Urts small(CostModel::preset(PatchLevel::kUnpatched), 48);
  tracedb::TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(small);
  EnclaveConfig config;
  config.heap_pages = 64;
  config.code_pages = 4;
  config.stack_pages = 2;
  config.tcs_count = 1;
  const EnclaveId eid = make_enclave(small, kEdl, config);
  Enclave& e = small.enclave(eid);
  e.register_ecall("ecall_work", [](TrustedContext& ctx, void*) {
    const auto base = ctx.enclave().heap_base_page() * kPageSize;
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (std::uint64_t p = 0; p < 64; ++p) ctx.touch(base + p * kPageSize, 1, MemAccess::kWrite);
    }
    return SgxStatus::kSuccess;
  });
  OcallTable table = make_ocall_table({&empty_ocall, &empty_ocall});
  small.sgx_ecall(eid, 0, &table, nullptr);
  logger.detach();

  EXPECT_FALSE(db.paging().empty());
  bool saw_in = false;
  bool saw_out = false;
  for (const auto& p : db.paging()) {
    saw_in |= p.direction == tracedb::PageDirection::kPageIn;
    saw_out |= p.direction == tracedb::PageDirection::kPageOut;
    EXPECT_EQ(p.enclave_id, eid);
  }
  EXPECT_TRUE(saw_in);
  EXPECT_TRUE(saw_out);
}

TEST_F(LoggerTest, EnclaveLifecycleRecorded) {
  ASSERT_FALSE(db_.enclaves().empty());
  const auto& rec = db_.enclaves()[0];
  EXPECT_EQ(rec.enclave_id, eid_);
  EXPECT_EQ(rec.tcs_count, urts_.enclave(eid_).tcs_count());
  EXPECT_EQ(rec.destroyed_ns, 0u);
  urts_.destroy_enclave(eid_);
  EXPECT_GT(db_.enclaves()[0].destroyed_ns, 0u);
}

TEST_F(LoggerTest, CallNamesComeFromEdl) {
  urts_.sgx_ecall(eid_, 0, &table_, nullptr);
  EXPECT_EQ(db_.name_of(eid_, CallType::kEcall, 0), "ecall_work");
  EXPECT_EQ(db_.name_of(eid_, CallType::kEcall, 1), "ecall_with_ocall");
  EXPECT_EQ(db_.name_of(eid_, CallType::kOcall, 0), "ocall_noop");
}

TEST_F(LoggerTest, DetachStopsTracing) {
  urts_.sgx_ecall(eid_, 0, &table_, nullptr);
  EXPECT_EQ(trace().calls().size(), 1u);
  logger_->detach();
  urts_.sgx_ecall(eid_, 0, &table_, nullptr);
  EXPECT_EQ(db_.calls().size(), 1u);  // no longer traced
  logger_->attach(urts_);             // re-attach for TearDown symmetry
}

TEST_F(LoggerTest, DoubleAttachThrows) {
  EXPECT_THROW(logger_->attach(urts_), std::logic_error);
}

TEST_F(LoggerTest, DetachWithCallsInFlightFinalizesOpenRecords) {
  // Detach from *inside* a traced ocall: both the ocall and its enclosing
  // ecall are still open.  Detach must finalize them (end = detach time),
  // not leak half-open records, and the unwinding frames must not record
  // anything further or crash on the torn-down logger.
  Enclave& e = urts_.enclave(eid_);
  e.register_ecall("ecall_with_ocall", [&](TrustedContext& ctx, void*) {
    FnMs ms;
    ms.fn = [&] {
      logger_->detach();
      return SgxStatus::kSuccess;
    };
    return ctx.ocall(1, &ms);
  });
  EXPECT_EQ(urts_.sgx_ecall(eid_, 1, &table_, nullptr), SgxStatus::kSuccess);

  ASSERT_EQ(db_.calls().size(), 2u);
  const auto& ecall = db_.calls()[0];
  const auto& ocall = db_.calls()[1];
  EXPECT_EQ(ecall.type, CallType::kEcall);
  EXPECT_EQ(ocall.type, CallType::kOcall);
  EXPECT_EQ(ocall.parent, 0);
  for (const auto& c : db_.calls()) {
    EXPECT_GT(c.end_ns, 0u);  // finalized, not leaked
    EXPECT_GE(c.end_ns, c.start_ns);
  }
  logger_->attach(urts_);  // re-attach for TearDown symmetry
}

TEST_F(LoggerTest, FlushWithCallsInFlightThrows) {
  Enclave& e = urts_.enclave(eid_);
  e.register_ecall("ecall_with_ocall", [&](TrustedContext& ctx, void*) {
    FnMs ms;
    ms.fn = [&] {
      EXPECT_THROW(logger_->flush(), std::logic_error);
      return SgxStatus::kSuccess;
    };
    return ctx.ocall(1, &ms);
  });
  EXPECT_EQ(urts_.sgx_ecall(eid_, 1, &table_, nullptr), SgxStatus::kSuccess);
}

TEST_F(LoggerTest, EnclaveCreatedBeforeAttachIsRegisteredLazily) {
  Urts fresh;
  const EnclaveId eid = make_enclave(fresh, kEdl);
  Enclave& e = fresh.enclave(eid);
  e.register_ecall("ecall_work", [](TrustedContext&, void*) { return SgxStatus::kSuccess; });

  tracedb::TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(fresh);  // after creation
  OcallTable table = make_ocall_table({&empty_ocall, &empty_ocall});
  fresh.sgx_ecall(eid, 0, &table, nullptr);
  logger.detach();

  EXPECT_EQ(db.calls().size(), 1u);
  EXPECT_EQ(db.name_of(eid, CallType::kEcall, 0), "ecall_work");
  EXPECT_FALSE(db.enclaves().empty());
}

/// Expects the latency table to hold one row per call site of `db`'s call
/// table, each the HDR of that site's call durations: count, exact sum and
/// every non-empty bucket.
void expect_rows_fold_the_calls(const tracedb::TraceDatabase& db) {
  std::map<std::tuple<EnclaveId, CallType, CallId>, telemetry::HdrSnapshot> sites;
  for (const auto& c : db.calls()) sites[{c.enclave_id, c.type, c.call_id}].record(c.duration());
  EXPECT_EQ(db.latencies().size(), sites.size());
  for (const auto& [key, snap] : sites) {
    const auto& [eid, type, id] = key;
    const tracedb::LatencyRecord* row = db.find_latency(eid, type, id);
    ASSERT_NE(row, nullptr) << "no row for call id " << id;
    EXPECT_EQ(row->count, snap.count()) << "call id " << id;
    EXPECT_EQ(row->sum_ns, snap.sum()) << "call id " << id;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
    const auto& counts = snap.buckets();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] > 0) buckets.emplace_back(static_cast<std::uint32_t>(i), counts[i]);
    }
    EXPECT_EQ(row->buckets, buckets) << "call id " << id;
  }
}

TEST(LoggerHistogram, ReattachKeepsEveryEpochInTheLatencyTable) {
  Urts urts;
  tracedb::TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);

  const EnclaveId eid = make_enclave(urts, kEdl);
  // The ecall works for as many virtual nanoseconds as its argument says,
  // so the calls spread over several buckets and no sum is a bucket bound.
  urts.enclave(eid).register_ecall("ecall_work", [](TrustedContext& ctx, void* ms) {
    ctx.work(*static_cast<const support::Nanoseconds*>(ms));
    return SgxStatus::kSuccess;
  });
  OcallTable table = make_ocall_table({&empty_ocall, &empty_ocall});
  const auto run = [&](int n) {
    for (int i = 0; i < n; ++i) {
      support::Nanoseconds work = 2'500 + 37 * static_cast<support::Nanoseconds>(i % 9);
      urts.sgx_ecall(eid, 0, &table, &work);
    }
  };

  // One epoch with a flush inside it: the rows fold each merge once.
  run(40);
  logger.flush();
  expect_rows_fold_the_calls(db);
  run(7);
  logger.detach();
  ASSERT_EQ(db.calls().size(), 47u);
  expect_rows_fold_the_calls(db);

  // A second epoch on the same database adds to the rows it left.
  logger.attach(urts);
  run(10);
  logger.detach();
  ASSERT_EQ(db.calls().size(), 57u);
  ASSERT_EQ(db.latencies().size(), 1u);
  EXPECT_EQ(db.latencies()[0].count, 57u);
  expect_rows_fold_the_calls(db);
}

TEST(LoggerHistogram, EveryLatencyRowIsTheHdrOfItsSitesCalls) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kCalls = 50;
  Urts urts;
  tracedb::TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);

  EnclaveConfig config;
  config.tcs_count = kThreads + 1;
  const EnclaveId eid = make_enclave(urts, kEdl, config);
  urts.enclave(eid).register_ecall("ecall_with_ocall", [](TrustedContext& ctx, void* ms) {
    ctx.work(500);
    return ctx.ocall(1, ms);
  });
  OcallTable table = make_ocall_table({&empty_ocall, &invoke_fn_ocall});

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      FnMs ms;
      for (std::size_t i = 0; i < kCalls; ++i) urts.sgx_ecall(eid, 1, &table, &ms);
    });
  }
  for (auto& w : workers) w.join();

  // One more call of each site that detach() closes from inside the ocall.
  FnMs detach_inside;
  detach_inside.fn = [&] {
    logger.detach();
    return SgxStatus::kSuccess;
  };
  urts.sgx_ecall(eid, 1, &table, &detach_inside);

  ASSERT_EQ(db.calls().size(), 2 * (kThreads * kCalls + 1));
  // An ocall and its ecall end together only when detach() closed both.
  std::size_t closed_pairs = 0;
  for (const auto& c : db.calls()) {
    if (c.type == CallType::kOcall &&
        c.end_ns == db.calls()[static_cast<std::size_t>(c.parent)].end_ns) {
      ++closed_pairs;
    }
  }
  EXPECT_EQ(closed_pairs, 1u);
  expect_rows_fold_the_calls(db);
  for (const CallType type : {CallType::kEcall, CallType::kOcall}) {
    const tracedb::LatencyRecord* row = db.find_latency(eid, type, 1);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->count, kThreads * kCalls + 1);
  }
}

}  // namespace
