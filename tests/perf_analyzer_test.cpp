// Analyser tests: the Figure 4 indirect-parent rules, Equations 1-3 with the
// paper's default weights, SSC and paging detection, the security analysis
// and the report writers.
#include <gtest/gtest.h>

#include "perf/analyzer.hpp"
#include "perf/report.hpp"

namespace {

using namespace perf;
using tracedb::CallIndex;
using tracedb::CallKey;
using tracedb::CallRecord;
using tracedb::CallType;
using tracedb::kNoParent;
using tracedb::OcallKind;
using tracedb::TraceDatabase;

CallIndex add(TraceDatabase& db, CallType type, tracedb::CallId id, std::uint64_t start,
              std::uint64_t end, CallIndex parent = kNoParent, tracedb::ThreadId tid = 1,
              tracedb::EnclaveId eid = 1) {
  CallRecord c;
  c.type = type;
  c.call_id = id;
  c.thread_id = tid;
  c.enclave_id = eid;
  c.start_ns = start;
  c.end_ns = end;
  c.parent = parent;
  return db.add_call(c);
}

bool has_finding(const AnalysisReport& r, FindingKind kind, const std::string& name) {
  for (const auto& f : r.findings) {
    if (f.kind == kind && f.subject_name == name) return true;
  }
  return false;
}

// --- Figure 4: indirect parents -------------------------------------------------

TEST(IndirectParents, Case1SuccessiveEcalls) {
  TraceDatabase db;
  add(db, CallType::kEcall, 0, 0, 10);    // E1
  add(db, CallType::kEcall, 0, 20, 30);   // E2
  add(db, CallType::kEcall, 0, 40, 50);   // E3
  const auto ip = tracedb::indirect_parents(db);
  EXPECT_EQ(ip[0], kNoParent);
  EXPECT_EQ(ip[1], 0);
  EXPECT_EQ(ip[2], 1);
}

TEST(IndirectParents, Case2OcallsUnderSameEcall) {
  TraceDatabase db;
  const auto e1 = add(db, CallType::kEcall, 0, 0, 100);  // E1
  add(db, CallType::kOcall, 1, 10, 20, e1);              // O2 (parent E1)
  add(db, CallType::kOcall, 2, 30, 40, e1);              // O3 (parent E1)
  const auto ip = tracedb::indirect_parents(db);
  EXPECT_EQ(ip[1], kNoParent);
  EXPECT_EQ(ip[2], 1);  // O3's indirect parent is O2
}

TEST(IndirectParents, Case3DeepNestingHasNone) {
  TraceDatabase db;
  const auto e1 = add(db, CallType::kEcall, 0, 0, 100);   // E1
  const auto o2 = add(db, CallType::kOcall, 1, 10, 90, e1);  // O2
  add(db, CallType::kEcall, 2, 20, 80, o2);               // E3 nested in O2
  const auto ip = tracedb::indirect_parents(db);
  EXPECT_EQ(ip[0], kNoParent);
  EXPECT_EQ(ip[1], kNoParent);
  EXPECT_EQ(ip[2], kNoParent);
}

TEST(IndirectParents, Case4SkipsOtherType) {
  TraceDatabase db;
  const auto e1 = add(db, CallType::kEcall, 0, 0, 50);  // E1
  add(db, CallType::kOcall, 1, 10, 20, e1);             // O2 during E1
  add(db, CallType::kEcall, 0, 60, 70);                 // E3 top level
  const auto ip = tracedb::indirect_parents(db);
  EXPECT_EQ(ip[2], 0);  // E3's indirect parent is E1, not O2
}

TEST(IndirectParents, SeparateThreadsDontMix) {
  TraceDatabase db;
  add(db, CallType::kEcall, 0, 0, 10, kNoParent, /*tid=*/1);
  add(db, CallType::kEcall, 0, 20, 30, kNoParent, /*tid=*/2);
  const auto ip = tracedb::indirect_parents(db);
  EXPECT_EQ(ip[1], kNoParent);
}

// --- Equation 1: short calls / moving -----------------------------------------

TEST(Eq1, FlagsMostlyShortOcalls) {
  TraceDatabase db;
  db.add_call_name({1, CallType::kOcall, 7, "ocall_tiny"});
  for (int i = 0; i < 100; ++i) {
    // 800 ns ocalls: 100% < 1us -> alpha branch fires.
    add(db, CallType::kOcall, 7, static_cast<std::uint64_t>(i) * 100'000,
        static_cast<std::uint64_t>(i) * 100'000 + 800);
  }
  const Analyzer an(db);
  const auto report = an.analyze();
  EXPECT_TRUE(has_finding(report, FindingKind::kShortCalls, "ocall_tiny"));
}

TEST(Eq1, SubtractsEcallTransitionTime) {
  TraceDatabase db;
  db.add_call_name({1, CallType::kEcall, 3, "ecall_thin"});
  for (int i = 0; i < 100; ++i) {
    // Raw 4,800 ns; minus the 4,205 ns transition -> ~600 ns of work.
    add(db, CallType::kEcall, 3, static_cast<std::uint64_t>(i) * 100'000,
        static_cast<std::uint64_t>(i) * 100'000 + 4'800);
  }
  const Analyzer an(db);
  EXPECT_TRUE(has_finding(an.analyze(), FindingKind::kShortCalls, "ecall_thin"));
}

TEST(Eq1, IgnoresLongCalls) {
  TraceDatabase db;
  db.add_call_name({1, CallType::kEcall, 3, "ecall_long"});
  for (int i = 0; i < 100; ++i) {
    add(db, CallType::kEcall, 3, static_cast<std::uint64_t>(i) * 100'000,
        static_cast<std::uint64_t>(i) * 100'000 + 50'000);
  }
  const Analyzer an(db);
  EXPECT_FALSE(has_finding(an.analyze(), FindingKind::kShortCalls, "ecall_long"));
}

TEST(Eq1, RespectsMinCalls) {
  TraceDatabase db;
  db.add_call_name({1, CallType::kOcall, 7, "ocall_rare"});
  for (int i = 0; i < 3; ++i) {
    add(db, CallType::kOcall, 7, static_cast<std::uint64_t>(i) * 100'000,
        static_cast<std::uint64_t>(i) * 100'000 + 500);
  }
  const Analyzer an(db);
  EXPECT_FALSE(has_finding(an.analyze(), FindingKind::kShortCalls, "ocall_rare"));
}

TEST(Eq1, ConfigurableWeights) {
  TraceDatabase db;
  db.add_call_name({1, CallType::kOcall, 7, "ocall_borderline"});
  // 40% of calls < 1us (0.35 < 0.40): fires with defaults ...
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t base = static_cast<std::uint64_t>(i) * 1'000'000;
    add(db, CallType::kOcall, 7, base, base + (i < 4 ? 500 : 400'000));
  }
  EXPECT_TRUE(has_finding(Analyzer(db).analyze(), FindingKind::kShortCalls,
                          "ocall_borderline"));
  // ... but not with alpha raised above the observed ratio.
  AnalyzerConfig strict;
  strict.eq1_alpha = 0.50;
  EXPECT_FALSE(has_finding(Analyzer(db, strict).analyze(), FindingKind::kShortCalls,
                           "ocall_borderline"));
}

// --- Equation 2: reordering ---------------------------------------------------------

TEST(Eq2, FlagsOcallAtParentStart) {
  TraceDatabase db;
  db.add_call_name({1, CallType::kOcall, 2, "ocall_alloc"});
  db.add_call_name({1, CallType::kEcall, 1, "ecall_handle"});
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t base = static_cast<std::uint64_t>(i) * 1'000'000;
    const auto e = add(db, CallType::kEcall, 1, base, base + 200'000);
    // The ocall fires 2 us after the ecall starts — the SNC memory-allocation
    // pattern of §3.3.
    add(db, CallType::kOcall, 2, base + 2'000, base + 5'000, e);
  }
  const auto report = Analyzer(db).analyze();
  EXPECT_TRUE(has_finding(report, FindingKind::kReorderStart, "ocall_alloc"));
  EXPECT_FALSE(has_finding(report, FindingKind::kReorderEnd, "ocall_alloc"));
}

TEST(Eq2, FlagsOcallAtParentEnd) {
  TraceDatabase db;
  db.add_call_name({1, CallType::kOcall, 2, "ocall_flush"});
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t base = static_cast<std::uint64_t>(i) * 1'000'000;
    const auto e = add(db, CallType::kEcall, 1, base, base + 200'000);
    add(db, CallType::kOcall, 2, base + 195'000, base + 198'000, e);
  }
  const auto report = Analyzer(db).analyze();
  EXPECT_TRUE(has_finding(report, FindingKind::kReorderEnd, "ocall_flush"));
  EXPECT_FALSE(has_finding(report, FindingKind::kReorderStart, "ocall_flush"));
}

TEST(Eq2, MidCallOcallNotFlagged) {
  TraceDatabase db;
  db.add_call_name({1, CallType::kOcall, 2, "ocall_mid"});
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t base = static_cast<std::uint64_t>(i) * 1'000'000;
    const auto e = add(db, CallType::kEcall, 1, base, base + 200'000);
    add(db, CallType::kOcall, 2, base + 100'000, base + 103'000, e);
  }
  const auto report = Analyzer(db).analyze();
  EXPECT_FALSE(has_finding(report, FindingKind::kReorderStart, "ocall_mid"));
  EXPECT_FALSE(has_finding(report, FindingKind::kReorderEnd, "ocall_mid"));
}

// --- Equation 3: batching / merging ----------------------------------------------

TEST(Eq3, FlagsBatchableIdenticalCalls) {
  TraceDatabase db;
  db.add_call_name({1, CallType::kEcall, 4, "ecall_bn_sub_part_words"});
  // Pairs of back-to-back identical ecalls, 200 ns apart (§5.2.3's pattern).
  std::uint64_t t = 0;
  for (int i = 0; i < 200; ++i) {
    add(db, CallType::kEcall, 4, t, t + 4'500);
    t += 4'700;  // gap of 200 ns to the next identical call
  }
  const auto report = Analyzer(db).analyze();
  EXPECT_TRUE(has_finding(report, FindingKind::kBatchable, "ecall_bn_sub_part_words"));
}

TEST(Eq3, FlagsMergeableDifferentCalls) {
  TraceDatabase db;
  db.add_call_name({1, CallType::kOcall, 0, "ocall_lseek"});
  db.add_call_name({1, CallType::kOcall, 1, "ocall_write"});
  // lseek immediately followed by write under the same ecall — §5.2.2.
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t base = static_cast<std::uint64_t>(i) * 1'000'000;
    const auto e = add(db, CallType::kEcall, 9, base, base + 100'000);
    add(db, CallType::kOcall, 0, base + 10'000, base + 14'000, e);   // lseek 4us
    add(db, CallType::kOcall, 1, base + 14'500, base + 31'000, e);   // write right after
  }
  const auto report = Analyzer(db).analyze();
  ASSERT_TRUE(has_finding(report, FindingKind::kMergeable, "ocall_write"));
  for (const auto& f : report.findings) {
    if (f.kind == FindingKind::kMergeable && f.subject_name == "ocall_write") {
      ASSERT_TRUE(f.partner.has_value());
      EXPECT_EQ(f.partner_name, "ocall_lseek");
    }
  }
}

TEST(Eq3, DistantCallsNotMerged) {
  TraceDatabase db;
  db.add_call_name({1, CallType::kOcall, 1, "ocall_write_far"});
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t base = static_cast<std::uint64_t>(i) * 10'000'000;
    const auto e = add(db, CallType::kEcall, 9, base, base + 9'000'000);
    add(db, CallType::kOcall, 0, base + 10'000, base + 14'000, e);
    add(db, CallType::kOcall, 1, base + 5'000'000, base + 5'016'000, e);  // 5 ms later
  }
  const auto report = Analyzer(db).analyze();
  EXPECT_FALSE(has_finding(report, FindingKind::kMergeable, "ocall_write_far"));
}

TEST(Eq3, LambdaThresholdRespected) {
  TraceDatabase db;
  db.add_call_name({1, CallType::kOcall, 1, "ocall_sometimes"});
  // Only 20% of ocall_sometimes instances follow ocall_0 (< lambda 0.35).
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t base = static_cast<std::uint64_t>(i) * 1'000'000;
    const auto e = add(db, CallType::kEcall, 9, base, base + 500'000);
    if (i % 5 == 0) {
      add(db, CallType::kOcall, 0, base + 10'000, base + 12'000, e);
      add(db, CallType::kOcall, 1, base + 12'100, base + 13'000, e);
    } else {
      add(db, CallType::kOcall, 1, base + 400'000, base + 401'000, e);
    }
  }
  const auto report = Analyzer(db).analyze();
  EXPECT_FALSE(has_finding(report, FindingKind::kMergeable, "ocall_sometimes"));
}

// --- SSC ------------------------------------------------------------------------------

TEST(Ssc, ShortWakeOcallsFlagged) {
  TraceDatabase db;
  db.add_call_name({1, CallType::kOcall, 6, "sgx_thread_set_untrusted_event_ocall"});
  for (int i = 0; i < 20; ++i) {
    const auto idx = add(db, CallType::kOcall, 6, static_cast<std::uint64_t>(i) * 50'000,
                         static_cast<std::uint64_t>(i) * 50'000 + 3'000);
    db.set_call_kind(idx, OcallKind::kWakeOne);
  }
  const auto report = Analyzer(db).analyze();
  EXPECT_TRUE(has_finding(report, FindingKind::kSyncContention,
                          "sgx_thread_set_untrusted_event_ocall"));
}

TEST(Ssc, GenericOcallsNotFlaggedAsSync) {
  TraceDatabase db;
  db.add_call_name({1, CallType::kOcall, 6, "ocall_generic"});
  for (int i = 0; i < 20; ++i) {
    add(db, CallType::kOcall, 6, static_cast<std::uint64_t>(i) * 50'000,
        static_cast<std::uint64_t>(i) * 50'000 + 3'000);
  }
  EXPECT_FALSE(has_finding(Analyzer(db).analyze(), FindingKind::kSyncContention,
                           "ocall_generic"));
}

// --- paging ------------------------------------------------------------------------------

TEST(Paging, ManyEventsFlagged) {
  TraceDatabase db;
  for (int i = 0; i < 200; ++i) {
    db.add_paging({1, static_cast<std::uint64_t>(i % 50),
                   i % 2 == 0 ? tracedb::PageDirection::kPageIn
                              : tracedb::PageDirection::kPageOut,
                   static_cast<std::uint64_t>(i) * 1'000});
  }
  const auto report = Analyzer(db).analyze();
  bool found = false;
  for (const auto& f : report.findings) found |= f.kind == FindingKind::kPaging;
  EXPECT_TRUE(found);
}

TEST(Paging, FewEventsIgnored) {
  TraceDatabase db;
  for (int i = 0; i < 10; ++i) {
    db.add_paging({1, 1, tracedb::PageDirection::kPageOut, static_cast<std::uint64_t>(i)});
  }
  const auto report = Analyzer(db).analyze();
  for (const auto& f : report.findings) EXPECT_NE(f.kind, FindingKind::kPaging);
}

// --- security ---------------------------------------------------------------------------

TEST(Security, PrivateEcallCandidateDetected) {
  TraceDatabase db;
  db.add_call_name({1, CallType::kEcall, 2, "ecall_always_nested"});
  db.add_call_name({1, CallType::kOcall, 0, "ocall_host"});
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t base = static_cast<std::uint64_t>(i) * 1'000'000;
    const auto e = add(db, CallType::kEcall, 0, base, base + 500'000);
    const auto o = add(db, CallType::kOcall, 0, base + 10'000, base + 400'000, e);
    add(db, CallType::kEcall, 2, base + 20'000, base + 300'000, o);
  }
  const auto report = Analyzer(db).analyze();
  ASSERT_TRUE(has_finding(report, FindingKind::kPrivateEcallCandidate, "ecall_always_nested"));
  for (const auto& f : report.findings) {
    if (f.kind == FindingKind::kPrivateEcallCandidate) {
      EXPECT_NE(f.detail.find("ocall_host"), std::string::npos);
    }
  }
}

TEST(Security, TopLevelEcallNotPrivateCandidate) {
  TraceDatabase db;
  db.add_call_name({1, CallType::kEcall, 0, "ecall_top"});
  add(db, CallType::kEcall, 0, 0, 100);
  EXPECT_FALSE(has_finding(Analyzer(db).analyze(), FindingKind::kPrivateEcallCandidate,
                           "ecall_top"));
  // Also issued during an ocall once: one top-level instance still rules it out.
  const auto e = add(db, CallType::kEcall, 1, 1'000, 9'000);
  const auto o = add(db, CallType::kOcall, 0, 2'000, 8'000, e);
  add(db, CallType::kEcall, 0, 3'000, 4'000, o);
  EXPECT_FALSE(has_finding(Analyzer(db).analyze(), FindingKind::kPrivateEcallCandidate,
                           "ecall_top"));
}

TEST(Security, AlreadyPrivateEcallNotReflagged) {
  TraceDatabase db;
  const auto spec = sgxsim::edl::parse(R"(
    enclave {
      trusted {
        public void ecall_pub(void);
        void ecall_priv(void);
      };
      untrusted { void ocall_x(void) allow (ecall_priv); };
    };
  )");
  db.add_call_name({1, CallType::kEcall, 1, "ecall_priv"});
  const auto e = add(db, CallType::kEcall, 0, 0, 100'000);
  const auto o = add(db, CallType::kOcall, 0, 10'000, 90'000, e);
  add(db, CallType::kEcall, 1, 20'000, 30'000, o);
  Analyzer an(db);
  an.set_interface(1, spec);
  EXPECT_FALSE(
      has_finding(an.analyze(), FindingKind::kPrivateEcallCandidate, "ecall_priv"));
}

TEST(Security, ExcessAllowedEcallsReported) {
  TraceDatabase db;
  const auto spec = sgxsim::edl::parse(R"(
    enclave {
      trusted {
        public void ecall_a(void);
        public void ecall_b(void);
      };
      untrusted { void ocall_x(void) allow (ecall_a, ecall_b); };
    };
  )");
  db.add_call_name({1, CallType::kEcall, 0, "ecall_a"});
  db.add_call_name({1, CallType::kEcall, 1, "ecall_b"});
  db.add_call_name({1, CallType::kOcall, 0, "ocall_x"});
  const auto e = add(db, CallType::kEcall, 0, 0, 100'000);
  const auto o = add(db, CallType::kOcall, 0, 10'000, 90'000, e);
  add(db, CallType::kEcall, 0, 20'000, 30'000, o);  // only ecall_a observed
  Analyzer an(db);
  an.set_interface(1, spec);
  const auto report = an.analyze();
  ASSERT_TRUE(has_finding(report, FindingKind::kExcessAllowedEcalls, "ocall_x"));
  for (const auto& f : report.findings) {
    if (f.kind == FindingKind::kExcessAllowedEcalls) {
      EXPECT_NE(f.detail.find("ecall_b"), std::string::npos);
      EXPECT_EQ(f.detail.find("ecall_a,"), std::string::npos);
    }
  }
}

TEST(Security, UserCheckPointersHighlighted) {
  TraceDatabase db;
  const auto spec = sgxsim::edl::parse(R"(
    enclave {
      trusted { public void ecall_raw([user_check] void* p); };
      untrusted {};
    };
  )");
  Analyzer an(db);
  an.set_interface(1, spec);
  EXPECT_TRUE(has_finding(an.analyze(), FindingKind::kUserCheckPointer, "ecall_raw"));
}

// --- overview & report rendering ------------------------------------------------------------

TEST(Report, OverviewCountsAndText) {
  TraceDatabase db;
  tracedb::EnclaveRecord enc;
  enc.enclave_id = 1;
  enc.name = "demo";
  db.add_enclave(enc);
  db.add_call_name({1, CallType::kEcall, 0, "ecall_fast"});
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t base = static_cast<std::uint64_t>(i) * 100'000;
    const auto e = add(db, CallType::kEcall, 0, base, base + 5'000);
    add(db, CallType::kOcall, 0, base + 1'000, base + 1'500, e);
  }
  const auto report = Analyzer(db).analyze();
  ASSERT_EQ(report.overviews.size(), 1u);
  EXPECT_EQ(report.overviews[0].ecall_instances, 20u);
  EXPECT_EQ(report.overviews[0].ocall_instances, 20u);
  EXPECT_GT(report.overviews[0].ecalls_below_10us, 0.99);

  const std::string text = render_text(report);
  EXPECT_NE(text.find("ecall_fast"), std::string::npos);
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("findings"), std::string::npos);
}

TEST(Overview, EnclaveWithoutCallsGivesZeroRow) {
  TraceDatabase db;
  tracedb::EnclaveRecord enc;
  enc.enclave_id = 4;
  enc.name = "idle";
  db.add_enclave(enc);
  const auto report = Analyzer(db).analyze();
  ASSERT_EQ(report.overviews.size(), 1u);
  const EnclaveOverview& ov = report.overviews[0];
  EXPECT_EQ(ov.enclave_id, 4u);
  EXPECT_EQ(ov.name, "idle");
  EXPECT_EQ(ov.ecalls_called + ov.ocalls_called, 0u);
  EXPECT_EQ(ov.ecall_instances + ov.ocall_instances, 0u);
  EXPECT_EQ(ov.ecalls_below_10us, 0.0);
  EXPECT_EQ(ov.ocalls_below_10us, 0.0);
  EXPECT_EQ(ov.page_ins + ov.page_outs, 0u);
  EXPECT_TRUE(report.stats.empty());
}

TEST(Overview, EcallShorterThanTransitionClampsAndCountsAsShort) {
  TraceDatabase db;
  // 250 ns is below the 4,205 ns ecall transition: the adjusted duration
  // clamps to 0 instead of wrapping.  The 30 us ecall stays long.
  add(db, CallType::kEcall, 0, 100, 350);
  add(db, CallType::kEcall, 1, 1'000, 31'000);
  const auto report = Analyzer(db).analyze();
  ASSERT_EQ(report.overviews.size(), 1u);
  EXPECT_EQ(report.overviews[0].ecalls_called, 2u);
  EXPECT_EQ(report.overviews[0].ecall_instances, 2u);
  EXPECT_EQ(report.overviews[0].ecalls_below_10us, 0.5);
  for (const auto& s : report.stats) {
    EXPECT_EQ(s.fraction_below_10us, s.key.call_id == 0 ? 1.0 : 0.0) << s.name;
  }
}

TEST(Overview, PagingSplitsPerEnclave) {
  TraceDatabase db;
  add(db, CallType::kEcall, 0, 0, 100'000, kNoParent, 1, /*eid=*/1);
  add(db, CallType::kEcall, 0, 0, 100'000, kNoParent, 2, /*eid=*/2);
  db.add_paging({1, 10, tracedb::PageDirection::kPageOut, 50});
  db.add_paging({1, 10, tracedb::PageDirection::kPageIn, 60});
  db.add_paging({2, 3, tracedb::PageDirection::kPageIn, 65});
  db.add_paging({1, 11, tracedb::PageDirection::kPageIn, 70});
  const auto report = Analyzer(db).analyze();
  ASSERT_EQ(report.overviews.size(), 2u);
  EXPECT_EQ(report.overviews[0].enclave_id, 1u);
  EXPECT_EQ(report.overviews[0].page_ins, 2u);
  EXPECT_EQ(report.overviews[0].page_outs, 1u);
  EXPECT_EQ(report.overviews[1].enclave_id, 2u);
  EXPECT_EQ(report.overviews[1].page_ins, 1u);
  EXPECT_EQ(report.overviews[1].page_outs, 0u);
}

TEST(Overview, EdlGivesDefinedCounts) {
  TraceDatabase db;
  add(db, CallType::kEcall, 0, 0, 20'000);
  const auto spec = sgxsim::edl::parse(R"(
    enclave {
      trusted { public void ecall_a(void); public void ecall_b(void); void ecall_c(void); };
      untrusted { void ocall_x(void); };
    };
  )");
  Analyzer without(db);
  EXPECT_EQ(without.analyze().overviews[0].ecalls_defined, 0u);
  Analyzer an(db);
  an.set_interface(1, spec);
  const auto report = an.analyze();
  ASSERT_EQ(report.overviews.size(), 1u);
  EXPECT_EQ(report.overviews[0].ecalls_defined, 3u);
  EXPECT_EQ(report.overviews[0].ocalls_defined, 1u);
  EXPECT_EQ(report.overviews[0].ecalls_called, 1u);
  EXPECT_EQ(report.overviews[0].ocalls_called, 0u);
}

TEST(Report, FindingsSortedBySeverity) {
  TraceDatabase db;
  db.add_call_name({1, CallType::kOcall, 0, "ocall_small"});
  db.add_call_name({1, CallType::kOcall, 1, "ocall_big"});
  for (int i = 0; i < 10; ++i) {
    add(db, CallType::kOcall, 0, static_cast<std::uint64_t>(i) * 100'000,
        static_cast<std::uint64_t>(i) * 100'000 + 500);
  }
  for (int i = 0; i < 1000; ++i) {
    add(db, CallType::kOcall, 1, 1'000'000 + static_cast<std::uint64_t>(i) * 100'000,
        1'000'000 + static_cast<std::uint64_t>(i) * 100'000 + 500);
  }
  const auto report = Analyzer(db).analyze();
  ASSERT_GE(report.findings.size(), 2u);
  EXPECT_GE(report.findings[0].severity, report.findings[1].severity);
}

TEST(Report, CallGraphDot) {
  TraceDatabase db;
  db.add_call_name({1, CallType::kEcall, 0, "ecall_SSL_read"});
  db.add_call_name({1, CallType::kOcall, 0, "ocall_read"});
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t base = static_cast<std::uint64_t>(i) * 100'000;
    const auto e = add(db, CallType::kEcall, 0, base, base + 50'000);
    add(db, CallType::kOcall, 0, base + 10'000, base + 20'000, e);
  }
  const std::string dot = render_callgraph_dot(db);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("ecall_SSL_read"), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
  EXPECT_NE(dot.find("shape=ellipse"), std::string::npos);
  EXPECT_NE(dot.find("style=solid"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // E->E indirect edges
  EXPECT_NE(dot.find("label=\"3\""), std::string::npos);   // direct edge count
}

TEST(Report, HistogramAndScatter) {
  TraceDatabase db;
  const CallKey key{1, CallType::kEcall, 0};
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t base = static_cast<std::uint64_t>(i) * 100'000;
    add(db, CallType::kEcall, 0, base, base + 14'000 + static_cast<std::uint64_t>(i % 10) * 100);
  }
  const auto hist = duration_histogram(db, key, 100);
  EXPECT_EQ(hist.bin_count(), 100u);
  EXPECT_EQ(hist.total(), 500u);

  const std::string csv = scatter_csv(db, key);
  EXPECT_NE(csv.find("time_since_start_ns,duration_ns"), std::string::npos);
  EXPECT_NE(csv.find("\n0,"), std::string::npos);  // first point at t=0

  const std::string ascii = render_scatter_ascii(db, key, 40, 10);
  EXPECT_NE(ascii.find('.'), std::string::npos);
}

TEST(Report, EmptyDatabaseRenders) {
  TraceDatabase db;
  const auto report = Analyzer(db).analyze();
  const std::string text = render_text(report);
  EXPECT_NE(text.find("no problems detected"), std::string::npos);
  EXPECT_EQ(render_scatter_ascii(db, CallKey{1, CallType::kEcall, 0}), "(no data)\n");
}

}  // namespace

namespace {

TEST(Security, MinimalAllowSetWithoutEdl) {
  tracedb::TraceDatabase db;
  db.add_call_name({1, CallType::kOcall, 0, "ocall_host"});
  db.add_call_name({1, CallType::kEcall, 1, "ecall_nested_a"});
  db.add_call_name({1, CallType::kEcall, 2, "ecall_nested_b"});
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t base = static_cast<std::uint64_t>(i) * 1'000'000;
    const auto e = add(db, CallType::kEcall, 0, base, base + 900'000);
    const auto o = add(db, CallType::kOcall, 0, base + 10'000, base + 800'000, e);
    add(db, CallType::kEcall, 1, base + 20'000, base + 100'000, o);
    add(db, CallType::kEcall, 2, base + 200'000, base + 300'000, o);
  }
  const auto report = perf::Analyzer(db).analyze();
  bool found = false;
  for (const auto& f : report.findings) {
    if (f.kind == perf::FindingKind::kMinimalAllowSet && f.subject_name == "ocall_host") {
      found = true;
      EXPECT_NE(f.detail.find("ecall_nested_a"), std::string::npos);
      EXPECT_NE(f.detail.find("ecall_nested_b"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Security, MinimalAllowSetSuppressedWhenEdlGiven) {
  tracedb::TraceDatabase db;
  const auto spec = sgxsim::edl::parse(R"(
    enclave {
      trusted { public void ecall_a(void); public void ecall_b(void); };
      untrusted { void ocall_x(void) allow (ecall_b); };
    };
  )");
  const auto e = add(db, CallType::kEcall, 0, 0, 900'000);
  const auto o = add(db, CallType::kOcall, 0, 10'000, 800'000, e);
  add(db, CallType::kEcall, 1, 20'000, 100'000, o);
  perf::Analyzer an(db);
  an.set_interface(1, spec);
  for (const auto& f : an.analyze().findings) {
    EXPECT_NE(f.kind, perf::FindingKind::kMinimalAllowSet);
  }
}

// --- dropped events (format v3) --------------------------------------------------

TEST(DroppedEvents, SurfacedInReportWithWarning) {
  TraceDatabase db;
  auto& shard = db.register_shard(/*owner_thread=*/1);
  db.merge_shards();  // seals the shard: further appends are dropped
  CallRecord rec;
  rec.thread_id = 1;
  rec.enclave_id = 1;
  rec.start_ns = 10;
  rec.end_ns = 20;
  EXPECT_EQ(shard.add_call(rec), tracedb::kShardSealed);
  EXPECT_EQ(shard.add_call(rec), tracedb::kShardSealed);
  db.merge_shards();  // collects the late-writer drops

  const auto report = perf::Analyzer(db).analyze();
  EXPECT_EQ(report.dropped_events, 2u);
  const std::string text = render_text(report);
  EXPECT_NE(text.find("WARNING: 2 event(s) were dropped"), std::string::npos);
}

TEST(DroppedEvents, NoWarningOnCompleteTrace) {
  TraceDatabase db;
  add(db, CallType::kEcall, 0, 0, 1'000);
  const auto report = perf::Analyzer(db).analyze();
  EXPECT_EQ(report.dropped_events, 0u);
  EXPECT_EQ(render_text(report).find("WARNING"), std::string::npos);
}

}  // namespace
