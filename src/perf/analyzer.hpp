// The sgx-perf analyser (§4.3): general statistics, anti-pattern detection
// (SISC, SDSC, SNC, SSC, paging) via the paper's Equations 1-3, and enclave
// interface security analysis (§3.6).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sgxsim/cost_model.hpp"
#include "sgxsim/edl.hpp"
#include "support/stats.hpp"
#include "tracedb/database.hpp"
#include "tracedb/query.hpp"

namespace perf {

/// All weights default to the paper's values (§4.3.2); thresholds are virtual
/// nanoseconds.
struct AnalyzerConfig {
  // Equation 1 — moving / duplication opportunities.
  // "(i) 35% of calls are shorter than 1us, (ii) 50% shorter than 5us or
  //  (iii) 65% shorter than 10us."
  double eq1_alpha = 0.35;
  double eq1_beta = 0.50;
  double eq1_gamma = 0.65;

  // Equation 2 — reordering opportunities (calls near the start/end of their
  // direct parent).
  double eq2_alpha = 1.00;
  double eq2_beta = 0.75;
  double eq2_gamma = 0.50;

  // Equation 3 — merging / batching opportunities (gap to indirect parent).
  double eq3_alpha = 1.00;
  double eq3_beta = 0.75;
  double eq3_gamma = 0.50;
  double eq3_delta = 0.35;
  double eq3_epsilon = 0.35;
  double eq3_lambda = 0.35;

  /// Transition time subtracted from *ecall* durations before comparing with
  /// the short-call thresholds (§4.1.2: ecall timestamps include transition
  /// time, ocall timestamps do not).
  support::Nanoseconds ecall_transition_ns = 4205;

  /// Short-call threshold for SSC/overview statistics (§4.3.2: "we chose to
  /// look at calls with execution times below 10us").
  support::Nanoseconds short_call_ns = 10'000;

  /// Minimum instances before a call site is considered by the detectors.
  std::size_t min_calls = 8;

  /// Paging events above this count raise a paging finding.
  std::size_t paging_threshold = 64;

  /// Tail-latency finding: fires when a call site's p99 exceeds both
  /// `tail_ratio` × p50 and `tail_min_ns` (means hide exactly this — a few
  /// 100x-slower transitions disappear into the average).
  double tail_ratio = 8.0;
  support::Nanoseconds tail_min_ns = 50'000;

  /// When true, analyze() replays the trace through the what-if engine and
  /// attaches a predicted whole-run speedup (and, for switchless, the best
  /// worker count) to every recommendation it can model.
  bool predict_speedups = true;
  /// Cost model the trace was recorded under, for the replay predictions
  /// (the trace file does not store the machine's patch level).
  sgxsim::CostModel replay_cost = sgxsim::CostModel::preset(sgxsim::PatchLevel::kUnpatched);
  /// Worker-count sweep bounds for switchless predictions.
  std::size_t switchless_min_workers = 1;
  std::size_t switchless_max_workers = 8;
  /// Unread: scenarios replay one at a time.  Kept only because wallbench
  /// still assigns it; the next benchmark change removes it.
  std::size_t replay_threads = 0;
};

/// What kind of problem a finding describes (Table 1).
enum class FindingKind {
  kShortCalls,          // Eq.1 fired: SISC/SDSC via moving (or duplication)
  kReorderStart,        // Eq.2 fired at parent start: SNC
  kReorderEnd,          // Eq.2 fired at parent end: SNC
  kBatchable,           // Eq.3, call is its own indirect parent: SISC
  kMergeable,           // Eq.3, different indirect parent: SDSC
  kSyncContention,      // SSC: short sync ocalls
  kPaging,              // paging events observed
  kTailLatency,         // p99 ≫ p50: a tail the mean-based stats hide
  kOutOfOrderEcall,     // orderliness: illegal consecutive top-level pair
  kReentrantEcall,      // orderliness: unexpected nested re-entry
  kUseBeforeInit,       // orderliness: ecall before the init phase completed
  kUseAfterDestroy,     // orderliness: ecall after enclave destruction
  kPhaseViolation,      // orderliness: init phase re-entered
  kPrivateEcallCandidate,
  kExcessAllowedEcalls,
  kMinimalAllowSet,  // no EDL given: the smallest allow() set observed
  kUserCheckPointer,
};

[[nodiscard]] const char* to_string(FindingKind k) noexcept;

/// The online alert kind of a finding kind, or nullopt for the interface and
/// security findings, which need the whole trace (and the EDL) and have no
/// online analogue.
[[nodiscard]] std::optional<tracedb::AlertKind> alert_kind_of(FindingKind k) noexcept;
/// The finding kind of an alert kind, or nullopt for kLatencyShift, a
/// window-based signal with no post-mortem analogue.
[[nodiscard]] std::optional<FindingKind> finding_kind_of(tracedb::AlertKind k) noexcept;

/// Mitigation strategies of Table 1, ordered by the priority rules of
/// §4.3.2: reordering does not grow the TCB and is evaluated first; moving
/// *out* of the enclave needs a security evaluation.
enum class Recommendation {
  kReorder,
  kBatch,
  kMerge,
  kMoveCallerIn,
  kMoveCallerOut,
  kDuplicateInEnclave,
  kSwitchless,
  kHybridLock,
  kLockFreeStructure,
  kReduceMemoryUsage,
  kPreloadPages,
  kAlternativeMemoryManagement,
  kInvestigateTail,
  kAuditCallSequence,
  kMakePrivate,
  kRestrictAllowedEcalls,
  kCheckPointerHandling,
};

[[nodiscard]] const char* to_string(Recommendation r) noexcept;

/// One recommendation plus the replay engine's prediction of what it buys.
/// Implicitly constructible from a bare Recommendation so the detectors can
/// keep listing actions; the prediction pass fills in the rest.
struct RecommendationEntry {
  RecommendationEntry() = default;
  RecommendationEntry(Recommendation a) : action(a) {}  // NOLINT(google-explicit-constructor)

  Recommendation action = Recommendation::kReorder;
  /// Predicted whole-run speedup of applying this recommendation (1.0 =
  /// neutral or not modeled).
  double predicted_speedup = 1.0;
  /// Best switchless worker count, when the prediction swept workers.
  std::size_t best_workers = 0;
  /// Name of the replayed scenario backing the prediction ("" = none).
  std::string scenario;
};

struct Finding {
  FindingKind kind = FindingKind::kShortCalls;
  tracedb::CallKey subject;
  std::string subject_name;
  /// Merge partner / parent call, when the finding relates two calls.
  std::optional<tracedb::CallKey> partner;
  std::string partner_name;
  std::vector<RecommendationEntry> recommendations;
  std::string detail;
  /// Sort key: roughly the number of transitions that could be saved.
  double severity = 0.0;
};

/// §4.3.1 general statistics for one call site.
struct CallStats {
  tracedb::CallKey key;
  std::string name;
  support::Summary duration_ns;
  std::uint64_t aex_total = 0;
  double fraction_below_10us = 0.0;
  /// HDR-quantized latency percentiles (ns).  Sourced from the trace's v4
  /// latency table when present, otherwise reconstructed from the per-call
  /// durations with the same bucket geometry — so both paths report
  /// identically quantized values.
  std::uint64_t p50_ns = 0;
  std::uint64_t p90_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t p999_ns = 0;
};

struct EnclaveOverview {
  tracedb::EnclaveId enclave_id = 0;
  std::string name;
  std::size_t ecalls_defined = 0;   // from EDL, when supplied
  std::size_t ocalls_defined = 0;
  std::size_t ecalls_called = 0;    // distinct ids observed
  std::size_t ocalls_called = 0;
  std::size_t ecall_instances = 0;
  std::size_t ocall_instances = 0;
  double ecalls_below_10us = 0.0;   // fraction (transition-adjusted)
  double ocalls_below_10us = 0.0;
  std::size_t page_ins = 0;
  std::size_t page_outs = 0;
};

struct AnalysisReport {
  std::vector<EnclaveOverview> overviews;
  std::vector<CallStats> stats;          // sorted by call count, descending
  std::vector<Finding> findings;         // sorted by severity, descending
  /// Events rejected by sealed shards while recording (from the trace, v3).
  /// Nonzero means the trace is silently truncated.
  std::uint64_t dropped_events = 0;
  /// Events dropped by live streaming subscriptions (from the trace, v4).
  /// These never affect the recorded tables — only live consumers lagged.
  std::uint64_t stream_dropped = 0;
};

class Analyzer {
 public:
  explicit Analyzer(const tracedb::TraceDatabase& db, AnalyzerConfig config = {});

  /// Supplies the EDL of an enclave, enabling the allow()-list comparison and
  /// user_check highlighting (§4.3.2 "Optionally, the analyser can be
  /// supplied the EDL file of the enclave").
  void set_interface(tracedb::EnclaveId enclave, sgxsim::edl::InterfaceSpec spec);

  [[nodiscard]] AnalysisReport analyze() const;
  /// analyze() over an index the caller already built with
  /// tracedb::index_trace of the same database.
  [[nodiscard]] AnalysisReport analyze(const tracedb::TraceIndex& index) const;

 private:
  struct SiteWalk;
  /// The one walk over the site index: fills the stats rows and the
  /// overviews' call counts, and returns the Eq. 1-3, SSC and private-ecall
  /// findings and the nested-ecall record for the passes after it.
  SiteWalk walk_sites(AnalysisReport& report, const tracedb::TraceIndex& index) const;
  /// One pass over the paging table: the overviews' page counts and the
  /// paging findings.
  void detect_paging(AnalysisReport& report) const;
  /// Validates the trace against the orderliness model embedded in its v6
  /// order-rules table (no-op when the trace carries none), turning each
  /// folded alert into a finding.  Runs check_trace(), so the findings agree
  /// with the online checker's end-of-run alert set.
  void detect_orderliness(AnalysisReport& report) const;
  /// Flags call sites whose p99/p50 ratio betrays a tail (needs the
  /// percentiles walk_sites() filled in, so runs after it).
  void detect_tail_latency(AnalysisReport& report) const;
  void analyze_security(AnalysisReport& report, SiteWalk& walk) const;
  /// Builds one what-if scenario per modelable recommendation, replays them
  /// (in parallel) and writes predicted speedups back onto the findings.
  /// Appends a kSwitchless recommendation to short-ecall findings, carrying
  /// the worker-sweep optimum.
  void annotate_predictions(AnalysisReport& report, const tracedb::TraceIndex& index) const;

  const tracedb::TraceDatabase& db_;
  AnalyzerConfig config_;
  std::map<tracedb::EnclaveId, sgxsim::edl::InterfaceSpec> interfaces_;
};

}  // namespace perf
