// The §4.3 anti-pattern detectors, written once: Eq. 1 (moving), Eq. 2
// (reordering), Eq. 3 (merging/batching), SSC, tail latency and paging.
//
// A detector is a set of cumulative per-site counters plus a predicate over
// them.  Two analysers fill the counters: the post-mortem Analyzer folds the
// finished trace into them (direct parents from the call table, indirect
// parents from tracedb::indirect_parents), the OnlineAnalyzer updates them
// event by event from the live stream.  Both judge them with evaluate(),
// tail_score() and paging_fires(), so every threshold comparison lives here.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "perf/analyzer.hpp"
#include "tracedb/database.hpp"

namespace perf {

/// Duration with the ecall transition time subtracted (§4.1.2: ecall
/// timestamps include transition time, ocall timestamps do not).
[[nodiscard]] support::Nanoseconds adjusted_ns(tracedb::CallType type, support::Nanoseconds raw,
                                               const AnalyzerConfig& cfg) noexcept;

/// Eq. 3 gap statistics of one site towards one indirect-parent site.
struct PairStats {
  std::uint64_t count = 0;  // instances whose indirect parent is of the partner site
  std::uint64_t p1 = 0, p5 = 0, p10 = 0, p20 = 0;  // gaps <= 1 / 5 / 10 / 20 us
};

/// Cumulative detector state of one call site.
struct SiteCounters {
  // Eq. 1: instances, and how many were short (transition-adjusted).
  std::uint64_t count = 0;
  std::uint64_t c1 = 0, c5 = 0, c10 = 0;
  bool any_nested_ocall = false;
  // Eq. 2: nested instances, their direct parents and their distance to the
  // parent's start and end.
  std::uint64_t nested = 0;
  std::uint64_t start10 = 0, start20 = 0, end10 = 0, end20 = 0;
  std::map<tracedb::CallKey, std::uint64_t> parent_freq;
  // Eq. 3: gap statistics per indirect-parent site.
  std::map<tracedb::CallKey, PairStats> by_parent;
  // SSC: the first non-generic ocall kind seen (a site's kind never flips
  // back), and the ocall instances shorter than short_call_ns (raw).
  tracedb::OcallKind kind = tracedb::OcallKind::kGeneric;
  std::uint64_t short_sync = 0;

  /// One completed instance of the site.
  void add_call(tracedb::CallType type, support::Nanoseconds raw, tracedb::OcallKind ocall_kind,
                bool has_parent, const AnalyzerConfig& cfg);
  /// The instance's direct parent, which started `from_start` before it.
  void add_parent_start(const tracedb::CallKey& parent, support::Nanoseconds from_start);
  /// The direct parent's end, once known.
  void add_parent_end(support::Nanoseconds parent_end, support::Nanoseconds call_end);
  /// The instance's indirect parent; the gap counts only when the two
  /// records do not overlap.
  void add_indirect_parent(const tracedb::CallKey& parent, support::Nanoseconds parent_end,
                           support::Nanoseconds call_start);

  /// The most frequent direct-parent site (the first in key order on ties).
  [[nodiscard]] tracedb::CallKey top_parent() const;
};

/// One detector predicate that holds for a site.
struct Verdict {
  tracedb::AlertKind kind = tracedb::AlertKind::kShortCalls;
  /// Eq. 1: share of instances under 10us.  Eq. 2 and Eq. 3: the weighted
  /// score.  SSC: the number of short instances.
  double score = 0.0;
  /// Eq. 3: the indirect parent.  (Eq. 2's partner, the most frequent
  /// direct parent, is SiteCounters::top_parent(), left to the caller.)
  tracedb::CallKey partner{};
};

/// Replaces `out` with the verdicts that hold for `site`, in this order:
/// Eq. 1; Eq. 2 start, then end; Eq. 3, one per qualifying indirect parent
/// in key order; SSC.  Reuses `out`'s storage.
void evaluate(const tracedb::CallKey& site, const SiteCounters& c, const AnalyzerConfig& cfg,
              std::vector<Verdict>& out);

/// Tail-latency predicate: the p99/p50 ratio when the site has a tail.
[[nodiscard]] std::optional<double> tail_score(std::uint64_t count, std::uint64_t p50,
                                               std::uint64_t p99,
                                               const AnalyzerConfig& cfg) noexcept;

/// Paging predicate over one enclave's paging-event count.
[[nodiscard]] bool paging_fires(std::uint64_t events, const AnalyzerConfig& cfg) noexcept;

}  // namespace perf
