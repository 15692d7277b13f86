// Detector precision/recall against the labeled stress corpus.
//
// Every stressor in src/stress declares ground truth: the anti-pattern alert
// kinds its construction must trigger and must not.  For each stressor this
// test records one run through the soak harness and checks the labels twice:
//
//  * online — the OnlineAnalyzer's end-of-run active-alert kinds (what
//    `sgxperf stress` reports), via the SoakResult verdict;
//  * post-mortem — the Analyzer's finding kinds over the merged trace,
//    mapped through perf::alert_kind_of.
//
// Both sides must show 100% recall on must_trigger and zero false positives
// from must_not; a per-detector precision/recall table goes to the test log.
// The runs must also be lossless (no stream drops, no sealed-shard drops, no
// pending-parent evictions) — the labels are only meaningful on full data.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "perf/analyzer.hpp"
#include "perf/online.hpp"
#include "sgxsim/runtime.hpp"
#include "stress/harness.hpp"
#include "tracedb/database.hpp"

namespace {

using tracedb::AlertKind;

struct CorpusRun {
  std::string name;
  stress::StressorSpec spec;
  std::set<AlertKind> online;      // end-of-run active alert kinds
  std::set<AlertKind> postmortem;  // Analyzer finding kinds (mapped)
};

/// One corpus recording: small virtual durations keep the whole suite well
/// under the ctest timeout; vm/mixed shrink the EPC to 4 MiB so the 1.25x
/// working set stays small (the stressor sizes itself off the machine).
CorpusRun record_corpus(const std::string& name, support::Nanoseconds duration_ns,
                        std::size_t epc_pages) {
  auto stressor = stress::make_stressor(name);
  EXPECT_NE(stressor, nullptr) << name;

  sgxsim::Urts urts(sgxsim::CostModel::preset(sgxsim::PatchLevel::kUnpatched), epc_pages);
  tracedb::TraceDatabase db;
  stress::SoakConfig config;
  config.stress.threads = 2;
  config.stress.duration_ns = duration_ns;
  const auto result = stress::run_soak(*stressor, urts, db, config);

  // Labels are only assertable on lossless runs.
  EXPECT_EQ(result.session.stream_dropped, 0u) << name;
  EXPECT_EQ(result.session.sealed_dropped, 0u) << name;
  EXPECT_EQ(result.session.pending_evicted, 0u) << name;
  EXPECT_GT(result.session.events, 0u) << name;
  EXPECT_GT(result.stress.bogo_ops, 0u) << name;

  CorpusRun run;
  run.name = name;
  run.spec = stressor->spec();
  run.online = result.triggered;
  for (const auto& finding : perf::Analyzer(db).analyze().findings) {
    if (const auto kind = perf::alert_kind_of(finding.kind)) run.postmortem.insert(*kind);
  }
  return run;
}

void expect_labels(const CorpusRun& run, const std::set<AlertKind>& fired, const char* side) {
  for (const auto kind : run.spec.must_trigger) {
    EXPECT_TRUE(fired.count(kind) != 0)
        << run.name << " (" << side << "): missed must-trigger label "
        << perf::to_string(kind);
  }
  for (const auto kind : run.spec.must_not) {
    EXPECT_TRUE(fired.count(kind) == 0)
        << run.name << " (" << side << "): false positive on must-not label "
        << perf::to_string(kind);
  }
}

std::vector<CorpusRun> record_all() {
  // Default EPC for the transition/sync stressors (they never page); a
  // 4 MiB EPC (1024 pages) for the paging ones.
  std::vector<CorpusRun> runs;
  runs.push_back(record_corpus("cpu", 10'000'000, sgxsim::Driver::kDefaultEpcPages));
  runs.push_back(record_corpus("sync", 10'000'000, sgxsim::Driver::kDefaultEpcPages));
  runs.push_back(record_corpus("ocall-storm", 20'000'000, sgxsim::Driver::kDefaultEpcPages));
  runs.push_back(record_corpus("vm", 10'000'000, 1024));
  runs.push_back(record_corpus("mixed", 80'000'000, 1024));
  // The orderliness pair: the violating script needs ~12 worker-0 ops, well
  // inside 20 ms of virtual time at two workers.
  runs.push_back(record_corpus("order", 20'000'000, sgxsim::Driver::kDefaultEpcPages));
  runs.push_back(record_corpus("order-clean", 20'000'000, sgxsim::Driver::kDefaultEpcPages));
  return runs;
}

TEST(StressDetectorAccuracy, LabeledCorpusPrecisionRecall) {
  const auto runs = record_all();
  ASSERT_EQ(runs.size(), stress::stressor_names().size());

  for (const auto& run : runs) {
    expect_labels(run, run.online, "online");
    expect_labels(run, run.postmortem, "post-mortem");
  }

  // Per-detector precision/recall across the corpus, counting each
  // (stressor, side) pair as one labeled sample.  With the assertions above
  // green this prints 1.00/1.00 everywhere — the table is the evidence trail
  // (EXPERIMENTS.md E14).
  struct Tally {
    unsigned tp = 0, fp = 0, fn = 0, tn = 0;
  };
  std::map<AlertKind, Tally> tally;
  for (const auto& run : runs) {
    for (const auto* fired : {&run.online, &run.postmortem}) {
      for (const auto kind : run.spec.must_trigger) {
        (fired->count(kind) != 0 ? tally[kind].tp : tally[kind].fn) += 1;
      }
      for (const auto kind : run.spec.must_not) {
        (fired->count(kind) != 0 ? tally[kind].fp : tally[kind].tn) += 1;
      }
    }
  }
  std::printf("detector         precision  recall   (tp/fp/fn/tn over %zu labeled runs x 2 sides)\n",
              runs.size());
  for (const auto& [kind, t] : tally) {
    const double precision =
        t.tp + t.fp == 0 ? 1.0 : static_cast<double>(t.tp) / (t.tp + t.fp);
    const double recall = t.tp + t.fn == 0 ? 1.0 : static_cast<double>(t.tp) / (t.tp + t.fn);
    std::printf("%-16s %9.2f %7.2f   (%u/%u/%u/%u)\n", perf::to_string(kind), precision, recall,
                t.tp, t.fp, t.fn, t.tn);
    EXPECT_DOUBLE_EQ(precision, 1.0) << perf::to_string(kind);
    EXPECT_DOUBLE_EQ(recall, 1.0) << perf::to_string(kind);
  }
}

TEST(StressDetectorAccuracy, EveryStressorDeclaresDisjointLabels) {
  for (const auto& name : stress::stressor_names()) {
    const auto stressor = stress::make_stressor(name);
    ASSERT_NE(stressor, nullptr) << name;
    const auto& spec = stressor->spec();
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.description.empty()) << name;
    for (const auto kind : spec.must_trigger) {
      EXPECT_EQ(spec.must_not.count(kind), 0u)
          << name << ": label " << perf::to_string(kind) << " in both sets";
      EXPECT_NE(kind, AlertKind::kLatencyShift) << name << ": kLatencyShift is unlabeled";
    }
    for (const auto kind : spec.must_not) {
      EXPECT_NE(kind, AlertKind::kLatencyShift) << name << ": kLatencyShift is unlabeled";
    }
  }
  EXPECT_EQ(stress::make_stressor("no-such-stressor"), nullptr);
}

}  // namespace
