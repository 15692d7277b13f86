// Concurrency regression net for the sharded recording path: N real threads
// hammer ecalls/ocalls through one attached Logger, and the merged database
// must contain every record exactly once, with per-thread monotonic
// timestamps, correct cross-references and analyzer verdicts matching the
// single-threaded baseline.
#include <gtest/gtest.h>

#include <future>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "perf/analyzer.hpp"
#include "perf/logger.hpp"
#include "tests/sim_helpers.hpp"

namespace {

using namespace sgxsim;
using test_helpers::empty_ocall;
using test_helpers::make_enclave;
using tracedb::CallType;

constexpr const char* kEdl = R"(
enclave {
  trusted {
    public int ecall_with_ocall(void);
  };
  untrusted {
    void ocall_noop(void);
  };
};
)";

constexpr std::size_t kThreads = 4;
constexpr std::size_t kCallsPerThread = 50;

EnclaveId build_enclave(Urts& urts) {
  EnclaveConfig config;
  config.tcs_count = kThreads + 1;
  const EnclaveId eid = make_enclave(urts, kEdl, config);
  urts.enclave(eid).register_ecall("ecall_with_ocall", [](TrustedContext& ctx, void*) {
    ctx.work(200);
    return ctx.ocall(0, nullptr);
  });
  return eid;
}

/// Issues `calls` ecalls (each performing one ocall) from `threads` worker
/// threads; with threads == 1 the workload runs on the calling thread so the
/// single-threaded trace is deterministic.
void run_workload(Urts& urts, EnclaveId eid, std::size_t threads, std::size_t calls) {
  OcallTable table = make_ocall_table({&empty_ocall});
  auto body = [&] {
    for (std::size_t i = 0; i < calls; ++i) {
      ASSERT_EQ(urts.sgx_ecall(eid, 0, &table, nullptr), SgxStatus::kSuccess);
    }
  };
  if (threads == 1) {
    body();
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) workers.emplace_back(body);
  for (auto& w : workers) w.join();
}

TEST(LoggerConcurrency, NoLostOrDuplicatedRecords) {
  Urts urts;
  tracedb::TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);
  const EnclaveId eid = build_enclave(urts);
  run_workload(urts, eid, kThreads, kCallsPerThread);
  logger.detach();

  ASSERT_EQ(db.calls().size(), kThreads * kCallsPerThread * 2);

  // Exactly kCallsPerThread ecalls and ocalls per worker thread.
  std::map<tracedb::ThreadId, std::size_t> ecalls;
  std::map<tracedb::ThreadId, std::size_t> ocalls;
  for (const auto& c : db.calls()) {
    (c.type == CallType::kEcall ? ecalls : ocalls)[c.thread_id]++;
    EXPECT_GT(c.end_ns, c.start_ns);  // every record finished exactly once
  }
  ASSERT_EQ(ecalls.size(), kThreads);
  ASSERT_EQ(ocalls.size(), kThreads);
  for (const auto& [tid, n] : ecalls) EXPECT_EQ(n, kCallsPerThread) << "thread " << tid;
  for (const auto& [tid, n] : ocalls) EXPECT_EQ(n, kCallsPerThread) << "thread " << tid;

  // Every ocall points at a distinct same-thread ecall (remap correctness).
  std::set<tracedb::CallIndex> parents;
  for (const auto& c : db.calls()) {
    if (c.type != CallType::kOcall) continue;
    ASSERT_NE(c.parent, tracedb::kNoParent);
    const auto& parent = db.calls().at(static_cast<std::size_t>(c.parent));
    EXPECT_EQ(parent.type, CallType::kEcall);
    EXPECT_EQ(parent.thread_id, c.thread_id);
    EXPECT_TRUE(parents.insert(c.parent).second) << "parent shared by two ocalls";
  }
}

TEST(LoggerConcurrency, TimestampsSortedGloballyAndPerThread) {
  Urts urts;
  tracedb::TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);
  const EnclaveId eid = build_enclave(urts);
  run_workload(urts, eid, kThreads, kCallsPerThread);
  logger.detach();

  std::map<tracedb::ThreadId, tracedb::Nanoseconds> last_start;
  for (std::size_t i = 0; i < db.calls().size(); ++i) {
    const auto& c = db.calls()[i];
    if (i > 0) {
      EXPECT_GE(c.start_ns, db.calls()[i - 1].start_ns) << "global order broken";
    }
    const auto it = last_start.find(c.thread_id);
    if (it != last_start.end()) {
      EXPECT_GT(c.start_ns, it->second) << "per-thread order broken";
    }
    last_start[c.thread_id] = c.start_ns;
  }
}

TEST(LoggerConcurrency, MergeStatsAccountForEveryShard) {
  Urts urts;
  tracedb::TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);
  const EnclaveId eid = build_enclave(urts);
  run_workload(urts, eid, kThreads, kCallsPerThread);
  logger.detach();

  EXPECT_EQ(db.shard_count(), kThreads);
  const auto stats = db.merge_stats();
  EXPECT_EQ(stats.merges, 1u);
  EXPECT_EQ(stats.shards_merged, kThreads);
  EXPECT_EQ(stats.calls, kThreads * kCallsPerThread * 2);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST(LoggerConcurrency, AnalyzerVerdictsMatchSingleThreadedBaseline) {
  // Same total work single- vs multi-threaded.  Virtual-time interleaving
  // inflates *observed* multi-threaded durations nondeterministically, so
  // the robust invariants are: identical instance counts and identical
  // short-call verdicts on the ocall site (its recorded window excludes the
  // transitions and stays far below every Eq.1 threshold).
  auto analyze = [](std::size_t threads) {
    Urts urts;
    tracedb::TraceDatabase db;
    perf::Logger logger(db);
    logger.attach(urts);
    const EnclaveId eid = build_enclave(urts);
    run_workload(urts, eid, threads, kThreads * kCallsPerThread / threads);
    logger.detach();
    return perf::Analyzer(db).analyze();
  };
  const perf::AnalysisReport st = analyze(1);
  const perf::AnalysisReport mt = analyze(kThreads);

  ASSERT_EQ(st.overviews.size(), 1u);
  ASSERT_EQ(mt.overviews.size(), 1u);
  EXPECT_EQ(mt.overviews[0].ecall_instances, st.overviews[0].ecall_instances);
  EXPECT_EQ(mt.overviews[0].ocall_instances, st.overviews[0].ocall_instances);
  EXPECT_EQ(mt.overviews[0].ecalls_called, st.overviews[0].ecalls_called);
  EXPECT_EQ(mt.overviews[0].ocalls_called, st.overviews[0].ocalls_called);

  auto ocall_short_call_verdict = [](const perf::AnalysisReport& report) {
    for (const auto& f : report.findings) {
      if (f.kind == perf::FindingKind::kShortCalls &&
          f.subject.type == CallType::kOcall) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(ocall_short_call_verdict(st));
  EXPECT_EQ(ocall_short_call_verdict(mt), ocall_short_call_verdict(st));
}

TEST(LoggerConcurrency, LateWritesAfterAnInOrderMergeAreDroppedAndCounted) {
  // The writer thread outlives the merge.  Its one shard is in time order,
  // so the merge moves the shard's rows into the database as they are; the
  // writer's late add_call and finish_call then meet a sealed, emptied shard
  // and must be dropped and counted, never written into the moved rows.
  tracedb::TraceDatabase db;
  std::promise<void> recorded;
  std::promise<void> merged;
  tracedb::CallIndex late_index = 0;
  std::thread writer([&] {
    tracedb::EventShard& shard = db.register_shard(/*owner_thread=*/1);
    tracedb::CallRecord rec;
    rec.thread_id = 1;
    rec.enclave_id = 1;
    tracedb::CallIndex last = tracedb::kNoParent;
    for (std::size_t i = 0; i < kCallsPerThread; ++i) {
      rec.start_ns = 100 * (i + 1);
      last = shard.add_call(rec);
      shard.finish_call(last, rec.start_ns + 50, 0);
    }
    recorded.set_value();
    merged.get_future().wait();
    late_index = shard.add_call(rec);
    shard.finish_call(last, 1, 7);
  });
  recorded.get_future().wait();
  const auto first = db.merge_shards();
  merged.set_value();
  writer.join();

  EXPECT_EQ(first.shards_merged, 1u);
  EXPECT_EQ(first.calls, kCallsPerThread);
  EXPECT_EQ(first.dropped, 0u);
  EXPECT_EQ(late_index, tracedb::kShardSealed);
  const auto second = db.merge_shards();
  EXPECT_EQ(second.calls, 0u);
  EXPECT_EQ(second.dropped, 2u);
  EXPECT_EQ(db.dropped_events(), 2u);
  ASSERT_EQ(db.calls().size(), kCallsPerThread);
  EXPECT_EQ(db.calls().back().end_ns, 100 * kCallsPerThread + 50);
  EXPECT_EQ(db.calls().back().aex_count, 0u);
}

}  // namespace
