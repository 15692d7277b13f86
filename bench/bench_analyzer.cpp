// E9 — analyser micro-validation.
//
// Detector threshold sweeps: synthetic traces that straddle the Eq.1/2/3
// boundaries, confirming the paper's default weights fire exactly where
// intended (an ablation over the configurable α/β/γ/δ/ε/λ).  The analyser's
// own wall-clock cost is wallbench's `perf.analyzer.analyze_ms`.
#include <cstdio>

#include "bench_json.hpp"
#include "perf/analyzer.hpp"

namespace {

using perf::Analyzer;
using perf::AnalyzerConfig;
using perf::FindingKind;
using tracedb::CallRecord;
using tracedb::CallType;
using tracedb::TraceDatabase;

void add_call(TraceDatabase& db, CallType type, tracedb::CallId id, std::uint64_t start,
              std::uint64_t end, tracedb::CallIndex parent = tracedb::kNoParent) {
  CallRecord c;
  c.type = type;
  c.thread_id = 1;
  c.enclave_id = 1;
  c.call_id = id;
  c.start_ns = start;
  c.end_ns = end;
  c.parent = parent;
  db.add_call(c);
}

/// Builds a trace where `short_fraction` of ocall id 7's instances last
/// 600 ns and the rest 60 us, then reports whether Eq.1 fires.
bool eq1_fires(double short_fraction, const AnalyzerConfig& config = {}) {
  TraceDatabase db;
  constexpr int kCalls = 200;
  for (int i = 0; i < kCalls; ++i) {
    const std::uint64_t base = static_cast<std::uint64_t>(i) * 1'000'000;
    const bool is_short = static_cast<double>(i) < short_fraction * kCalls;
    add_call(db, CallType::kOcall, 7, base, base + (is_short ? 600 : 60'000));
  }
  const auto report = Analyzer(db, config).analyze();
  for (const auto& f : report.findings) {
    if (f.kind == FindingKind::kShortCalls) return true;
  }
  return false;
}

/// Builds a trace where ocall 2 starts `offset_us` after its parent ecall
/// begins; reports whether Eq.2 flags reorder-at-start.
bool eq2_fires(std::uint64_t offset_us) {
  TraceDatabase db;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t base = static_cast<std::uint64_t>(i) * 10'000'000;
    CallRecord e;
    e.type = CallType::kEcall;
    e.thread_id = 1;
    e.enclave_id = 1;
    e.call_id = 1;
    e.start_ns = base;
    e.end_ns = base + 5'000'000;
    const auto parent = db.add_call(e);
    add_call(db, CallType::kOcall, 2, base + offset_us * 1'000,
             base + offset_us * 1'000 + 2'000, parent);
  }
  const auto report = Analyzer(db).analyze();
  for (const auto& f : report.findings) {
    if (f.kind == FindingKind::kReorderStart) return true;
  }
  return false;
}

/// Successive identical ecalls with a given gap; reports whether Eq.3 flags
/// batching.
bool eq3_fires(std::uint64_t gap_us) {
  TraceDatabase db;
  std::uint64_t t = 0;
  for (int i = 0; i < 200; ++i) {
    add_call(db, CallType::kEcall, 4, t, t + 4'500);
    t += 4'500 + gap_us * 1'000;
  }
  const auto report = Analyzer(db).analyze();
  for (const auto& f : report.findings) {
    if (f.kind == FindingKind::kBatchable) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json("analyzer", bench::smoke_flag(argc, argv));
  std::printf("=== E9: analyser detector validation (Eq. 1-3, paper §4.3.2) ===\n\n");

  std::printf("Eq.1 (move/duplicate) vs fraction of sub-1us calls (alpha = 0.35):\n  ");
  double eq1_first_fire = 1.0;
  for (const double f : {0.10, 0.20, 0.30, 0.34, 0.36, 0.50, 0.80}) {
    const bool fire = eq1_fires(f);
    if (fire && f < eq1_first_fire) eq1_first_fire = f;
    std::printf("%.2f->%s  ", f, fire ? "FIRE" : "-");
  }
  json.metric("eq1_first_firing_fraction", eq1_first_fire, "fraction");
  std::printf("\nEq.1 with alpha raised to 0.60:\n  ");
  {
    AnalyzerConfig strict;
    strict.eq1_alpha = 0.60;
    // beta/gamma would still fire for these all-short-or-long traces at 0.5:
    strict.eq1_beta = 0.70;
    strict.eq1_gamma = 0.90;
    for (const double f : {0.36, 0.50, 0.59, 0.61, 0.80}) {
      std::printf("%.2f->%s  ", f, eq1_fires(f, strict) ? "FIRE" : "-");
    }
  }

  std::printf("\n\nEq.2 (reorder) vs child offset from parent start (window 10/20 us):\n  ");
  std::uint64_t eq2_last_fire = 0;
  for (const std::uint64_t off : {1ull, 5ull, 9ull, 15ull, 25ull, 100ull}) {
    const bool fire = eq2_fires(off);
    if (fire) eq2_last_fire = off;
    std::printf("%llu us->%s  ", static_cast<unsigned long long>(off), fire ? "FIRE" : "-");
  }
  json.metric("eq2_last_firing_offset_us", static_cast<double>(eq2_last_fire), "us");

  std::printf("\n\nEq.3 (batch) vs gap between successive identical ecalls "
              "(windows 1/5/10/20 us):\n  ");
  std::uint64_t eq3_last_fire = 0;
  for (const std::uint64_t gap : {0ull, 1ull, 4ull, 9ull, 19ull, 40ull, 200ull}) {
    const bool fire = eq3_fires(gap);
    if (fire) eq3_last_fire = gap;
    std::printf("%llu us->%s  ", static_cast<unsigned long long>(gap), fire ? "FIRE" : "-");
  }
  json.metric("eq3_last_firing_gap_us", static_cast<double>(eq3_last_fire), "us");
  std::printf("\n\n");
  return json.write() ? 0 : 1;
}
