// Online analyser correctness:
//  * parity — on each built-in workload (demo / minikv / minidb) the online
//    detectors' end-of-run active-alert set equals the post-mortem analyser's
//    recommendation set: same sites, same anti-pattern classes.  This is the
//    correctness anchor of perf/online.hpp: the cumulative predicates are the
//    post-mortem ones, so once the stream is fully drained the verdicts must
//    agree.
//  * phase change — a workload that turns pathological mid-run raises its
//    alert with an onset timestamp strictly *inside* the run (the post-mortem
//    analyser can only ever speak about the whole trace), and an alert whose
//    predicate stops holding is resolved again.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "minidb/enclave_db.hpp"
#include "minidb/workload.hpp"
#include "minikv/driver.hpp"
#include "perf/analyzer.hpp"
#include "perf/logger.hpp"
#include "perf/online.hpp"
#include "sgxsim/runtime.hpp"
#include "tests/sim_helpers.hpp"
#include "tracedb/database.hpp"

namespace {

using perf::OnlineAnalyzer;
using perf::StreamEvent;
using tracedb::AlertKind;
using tracedb::CallKey;
using tracedb::CallType;
using tracedb::TraceDatabase;

/// (kind, enclave, type, call_id) — one alert/finding identity.
using VerdictKey = std::tuple<std::uint8_t, std::uint64_t, std::uint8_t, std::uint32_t>;

VerdictKey verdict_key(AlertKind kind, const CallKey& site) {
  return {static_cast<std::uint8_t>(kind), site.enclave_id,
          static_cast<std::uint8_t>(site.type), site.call_id};
}

/// Runs `workload` with the logger attached and a live subscription open,
/// then feeds the full stream to an OnlineAnalyzer and the merged trace to
/// the post-mortem Analyzer, returning both verdict sets.
struct ParityRun {
  std::set<VerdictKey> online;
  std::set<VerdictKey> postmortem;
  std::uint64_t stream_dropped = 0;
  std::uint64_t pending_evicted = 0;
  std::uint64_t events = 0;
};

template <typename Workload>
ParityRun run_parity(Workload&& workload) {
  sgxsim::Urts urts;
  TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);
  // Large enough that a fully-buffered run drops nothing: parity is only
  // promised on lossless streams.
  auto sub = logger.subscribe("parity", 1 << 18);
  workload(urts);
  logger.detach();  // seals + merges the shards for the post-mortem side

  ParityRun out;
  OnlineAnalyzer online;  // default OnlineConfig embeds default AnalyzerConfig
  std::vector<StreamEvent> batch;
  std::uint64_t end_ns = 0;
  while (sub->poll(batch, 4096) > 0) {
    for (const auto& ev : batch) end_ns = std::max(end_ns, ev.end_ns);
    online.feed(batch);
    batch.clear();
  }
  sub->close();
  online.finish(end_ns);

  out.stream_dropped = sub->dropped();
  out.pending_evicted = online.pending_evicted();
  out.events = online.events_seen();
  for (const auto& a : online.active_alerts()) {
    if (a.kind == AlertKind::kLatencyShift) continue;  // online-only signal
    out.online.insert(verdict_key(a.kind, CallKey{a.enclave_id, a.type, a.call_id}));
  }

  const auto report = perf::Analyzer(db).analyze();
  for (const auto& f : report.findings) {
    if (const auto kind = perf::alert_kind_of(f.kind)) {
      out.postmortem.insert(verdict_key(*kind, f.subject));
    }
  }
  return out;
}

void expect_parity(const ParityRun& run) {
  // Parity preconditions: nothing dropped, no Eq.2 buffers evicted.
  EXPECT_EQ(run.stream_dropped, 0u);
  EXPECT_EQ(run.pending_evicted, 0u);
  EXPECT_GT(run.events, 0u);
  EXPECT_EQ(run.online, run.postmortem);
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

TEST(OnlineParity, DemoWorkloadMatchesPostMortem) {
  const auto run = run_parity([](sgxsim::Urts& urts) {
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
  expect_parity(run);
  // The demo workload is built to be pathological: the verdict sets must
  // not be trivially empty for the parity check to mean anything.
  EXPECT_FALSE(run.online.empty());
}

TEST(OnlineParity, MiniKvWorkloadMatchesPostMortem) {
  const auto run = run_parity([](sgxsim::Urts& urts) {
    minikv::Store store(urts.clock());
    minikv::KvProxy proxy(urts, store);
    minikv::DriverConfig config;
    config.clients = 2;
    config.ops_per_client = 300;
    minikv::run_workload(proxy, config);
  });
  expect_parity(run);
}

TEST(OnlineParity, MiniDbWorkloadMatchesPostMortem) {
  const auto run = run_parity([](sgxsim::Urts& urts) {
    minidb::HostVfs vfs(urts.clock());
    minidb::DbEnclave dbe(urts, vfs, minidb::WriteMode::kSeekThenWrite);
    dbe.open("/parity.db");
    minidb::CommitGenerator gen;
    for (std::uint64_t i = 0; i < 40; ++i) {
      dbe.begin();
      for (const auto& [k, v] : gen.make(i).to_records()) dbe.put_in_txn(k, v);
      dbe.commit();
    }
    dbe.close_db();
  });
  expect_parity(run);
  EXPECT_FALSE(run.online.empty());
}

// --- phase change ----------------------------------------------------------

StreamEvent short_call_event(std::uint64_t start_ns, std::uint64_t duration_ns) {
  StreamEvent ev;
  ev.kind = StreamEvent::Kind::kCall;
  ev.call_type = CallType::kOcall;
  ev.thread_id = 1;
  ev.enclave_id = 1;
  ev.call_id = 7;
  ev.start_ns = start_ns;
  ev.end_ns = start_ns + duration_ns;
  return ev;
}

TEST(OnlinePhaseChange, AlertOnsetFallsStrictlyInsideTheRun) {
  OnlineAnalyzer online;
  std::vector<std::pair<tracedb::AlertRecord, bool>> transitions;  // (record, resolved)
  online.set_alert_sink([&](const tracedb::AlertRecord& a, bool resolved) {
    transitions.emplace_back(a, resolved);
  });

  // Phase 1: 200 healthy 60 us ocalls, 1 ms apart — no detector fires.
  std::uint64_t t = 0;
  const auto feed = [&](std::uint64_t duration_ns) {
    online.feed(short_call_event(t, duration_ns));
    t += duration_ns + 1'000'000;
  };
  for (int i = 0; i < 200; ++i) feed(60'000);
  EXPECT_TRUE(transitions.empty()) << "healthy phase must not raise alerts";
  const std::uint64_t phase2_start = t;

  // Phase 2: the site turns pathological (600 ns calls).  The cumulative
  // sub-1us fraction crosses Eq. 1's alpha = 0.35 once enough short calls
  // accumulate — mid-run, not at the end.
  for (int i = 0; i < 300; ++i) feed(600);
  const std::uint64_t run_end = t;
  online.finish(run_end);

  const auto raised =
      std::find_if(transitions.begin(), transitions.end(), [](const auto& tr) {
        return tr.first.kind == AlertKind::kShortCalls && !tr.second;
      });
  ASSERT_NE(raised, transitions.end());
  EXPECT_GT(raised->first.onset_ns, phase2_start);
  EXPECT_LT(raised->first.onset_ns, run_end);

  // Still active at end-of-run: this is exactly the verdict the post-mortem
  // analyser would reach — but with an onset the full-trace view cannot give.
  // (The bimodal durations legitimately also fire tail-latency / latency-
  // shift alerts; only the short-calls one is under test here.)
  const auto active = online.active_alerts();
  const auto it = std::find_if(active.begin(), active.end(), [](const auto& a) {
    return a.kind == AlertKind::kShortCalls;
  });
  ASSERT_NE(it, active.end());
  EXPECT_EQ(it->resolved_ns, 0u);
  EXPECT_EQ(it->onset_ns, raised->first.onset_ns);
}

TEST(OnlinePhaseChange, AlertResolvesWhenThePredicateStopsHolding) {
  OnlineAnalyzer online;
  std::vector<std::pair<tracedb::AlertRecord, bool>> transitions;
  online.set_alert_sink([&](const tracedb::AlertRecord& a, bool resolved) {
    transitions.emplace_back(a, resolved);
  });

  std::uint64_t t = 0;
  const auto feed = [&](std::uint64_t duration_ns) {
    online.feed(short_call_event(t, duration_ns));
    t += duration_ns + 1'000'000;
  };
  // 20 short calls out of 25: fraction 0.8 — Eq. 1 raises.
  for (int i = 0; i < 20; ++i) feed(600);
  for (int i = 0; i < 5; ++i) feed(60'000);
  const auto raised_early =
      std::find_if(transitions.begin(), transitions.end(), [](const auto& tr) {
        return tr.first.kind == AlertKind::kShortCalls && !tr.second;
      });
  ASSERT_NE(raised_early, transitions.end());

  // The site recovers: long calls dilute the short fraction below every
  // Eq. 1 threshold (20/80 = 0.25 < alpha), so the alert resolves mid-run.
  for (int i = 0; i < 55; ++i) feed(60'000);
  online.finish(t);

  const auto resolved =
      std::find_if(transitions.begin(), transitions.end(), [](const auto& tr) {
        return tr.first.kind == AlertKind::kShortCalls && tr.second;
      });
  ASSERT_NE(resolved, transitions.end());
  EXPECT_GT(resolved->first.resolved_ns, resolved->first.onset_ns);
  for (const auto& a : online.active_alerts()) {
    EXPECT_NE(a.kind, AlertKind::kShortCalls) << "short-calls alert must have resolved";
  }

  // The history keeps the resolved record (it is what persist() writes).
  const auto& history = online.alerts();
  const auto rec = std::find_if(history.begin(), history.end(), [](const auto& a) {
    return a.kind == AlertKind::kShortCalls;
  });
  ASSERT_NE(rec, history.end());
  EXPECT_GT(rec->resolved_ns, 0u);
}

}  // namespace
