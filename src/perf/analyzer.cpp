#include "perf/analyzer.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <utility>

#include "perf/detectors.hpp"
#include "perf/orderliness.hpp"
#include "replay/engine.hpp"
#include "support/strutil.hpp"
#include "telemetry/hdr_histogram.hpp"

namespace perf {

using tracedb::AlertKind;
using tracedb::CallKey;
using tracedb::CallRecord;
using tracedb::CallType;
using tracedb::kNoParent;
using tracedb::OcallKind;

const char* to_string(FindingKind k) noexcept {
  switch (k) {
    case FindingKind::kShortCalls: return "short calls (SISC/SDSC)";
    case FindingKind::kReorderStart: return "short nested call at parent start (SNC)";
    case FindingKind::kReorderEnd: return "short nested call at parent end (SNC)";
    case FindingKind::kBatchable: return "short identical successive calls (SISC)";
    case FindingKind::kMergeable: return "short different successive calls (SDSC)";
    case FindingKind::kSyncContention: return "short synchronisation calls (SSC)";
    case FindingKind::kPaging: return "EPC paging";
    case FindingKind::kTailLatency: return "tail latency (p99 far above p50)";
    case FindingKind::kOutOfOrderEcall: return "out-of-order ecall (illegal transition)";
    case FindingKind::kReentrantEcall: return "unexpected re-entrant ecall";
    case FindingKind::kUseBeforeInit: return "ecall before init completed";
    case FindingKind::kUseAfterDestroy: return "ecall after enclave destruction";
    case FindingKind::kPhaseViolation: return "lifecycle phase violation (init re-entered)";
    case FindingKind::kPrivateEcallCandidate: return "ecall can be made private";
    case FindingKind::kExcessAllowedEcalls: return "allow() list larger than necessary";
    case FindingKind::kMinimalAllowSet: return "smallest observed allow() set";
    case FindingKind::kUserCheckPointer: return "user_check pointer argument";
  }
  return "?";
}

namespace {

/// Finding kinds with an online alert analogue, paired with it.
constexpr std::pair<FindingKind, AlertKind> kKindPairs[] = {
    {FindingKind::kShortCalls, AlertKind::kShortCalls},
    {FindingKind::kReorderStart, AlertKind::kReorderStart},
    {FindingKind::kReorderEnd, AlertKind::kReorderEnd},
    {FindingKind::kBatchable, AlertKind::kBatchable},
    {FindingKind::kMergeable, AlertKind::kMergeable},
    {FindingKind::kSyncContention, AlertKind::kSyncContention},
    {FindingKind::kPaging, AlertKind::kPaging},
    {FindingKind::kTailLatency, AlertKind::kTailLatency},
    {FindingKind::kOutOfOrderEcall, AlertKind::kOutOfOrderEcall},
    {FindingKind::kReentrantEcall, AlertKind::kReentrantEcall},
    {FindingKind::kUseBeforeInit, AlertKind::kUseBeforeInit},
    {FindingKind::kUseAfterDestroy, AlertKind::kUseAfterDestroy},
    {FindingKind::kPhaseViolation, AlertKind::kPhaseViolation},
};

}  // namespace

std::optional<AlertKind> alert_kind_of(FindingKind k) noexcept {
  for (const auto& [finding, alert] : kKindPairs) {
    if (finding == k) return alert;
  }
  return std::nullopt;
}

std::optional<FindingKind> finding_kind_of(AlertKind k) noexcept {
  for (const auto& [finding, alert] : kKindPairs) {
    if (alert == k) return finding;
  }
  return std::nullopt;
}

const char* to_string(Recommendation r) noexcept {
  switch (r) {
    case Recommendation::kReorder: return "reorder the call before/after its parent";
    case Recommendation::kBatch: return "batch successive calls into one";
    case Recommendation::kMerge: return "merge the successive calls into a single call";
    case Recommendation::kMoveCallerIn: return "move the caller inside the enclave";
    case Recommendation::kMoveCallerOut:
      return "move the caller outside the enclave (needs security evaluation)";
    case Recommendation::kDuplicateInEnclave:
      return "duplicate the ocall's functionality inside the enclave (grows the TCB)";
    case Recommendation::kSwitchless:
      return "convert the call site to a switchless call (in-enclave worker threads)";
    case Recommendation::kHybridLock: return "use a hybrid spin-then-sleep lock";
    case Recommendation::kLockFreeStructure: return "use lock-free data structures";
    case Recommendation::kReduceMemoryUsage: return "reduce in-enclave memory usage";
    case Recommendation::kPreloadPages: return "pre-load pages before issuing the ecall";
    case Recommendation::kAlternativeMemoryManagement:
      return "manage memory inside the enclave instead of relying on SGX paging";
    case Recommendation::kInvestigateTail:
      return "inspect the slowest instances (AEX storms, paging, lock convoys) — the "
             "mean hides them";
    case Recommendation::kAuditCallSequence:
      return "audit the offending call path — it violates the enclave's interface "
             "ordering model";
    case Recommendation::kMakePrivate: return "declare the ecall private in the EDL";
    case Recommendation::kRestrictAllowedEcalls: return "shrink the ocall's allow() list";
    case Recommendation::kCheckPointerHandling:
      return "verify all checks on the user_check pointer";
  }
  return "?";
}

Analyzer::Analyzer(const tracedb::TraceDatabase& db, AnalyzerConfig config)
    : db_(db), config_(config) {}

void Analyzer::set_interface(tracedb::EnclaveId enclave, sgxsim::edl::InterfaceSpec spec) {
  interfaces_[enclave] = std::move(spec);
}

/// What the walk of the site index leaves for the passes after it.
struct Analyzer::SiteWalk {
  /// Eq. 1-3 and SSC findings by detector rank, each in site-key order.
  std::array<std::vector<Finding>, 4> by_detector;
  /// Security check 1: ecall sites whose every instance ran during an ocall.
  std::vector<Finding> private_ecalls;
  /// Names of each enclave's nested ecall sites, by the key of the call that
  /// hosted them (security checks 2a and 2b).
  std::map<tracedb::EnclaveId, std::map<CallKey, std::set<std::string>>> nested;
};

AnalysisReport Analyzer::analyze() const { return analyze(tracedb::index_trace(db_)); }

AnalysisReport Analyzer::analyze(const tracedb::TraceIndex& index) const {
  AnalysisReport report;
  report.dropped_events = db_.dropped_events();
  report.stream_dropped = db_.stream_dropped();
  SiteWalk walk = walk_sites(report, index);
  // Findings go out tail, Eq. 1-3 and SSC, paging, orderliness, security;
  // the stable sort below keeps that order among equal severities.
  detect_tail_latency(report);
  for (auto& findings : walk.by_detector) {
    for (auto& f : findings) report.findings.push_back(std::move(f));
  }
  detect_paging(report);
  detect_orderliness(report);
  analyze_security(report, walk);
  if (config_.predict_speedups) annotate_predictions(report, index);

  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const Finding& a, const Finding& b) { return a.severity > b.severity; });
  return report;
}

// --- what-if predictions (replay engine) -------------------------------------
void Analyzer::annotate_predictions(AnalysisReport& report,
                                    const tracedb::TraceIndex& index) const {
  if (report.findings.empty()) return;

  replay::ReplayConfig replay_config;
  replay_config.recorded_cost = config_.replay_cost;
  const replay::ReplayEngine engine(db_, index, replay_config);
  if (engine.recorded_span_ns() == 0) return;

  const auto site_name = [&](const CallKey& k) {
    return db_.name_of(k.enclave_id, k.type, k.call_id);
  };

  // One scenario per modelable (finding, recommendation) pair, deduplicated
  // by scenario name so e.g. "move in" and "move out" of the same site share
  // a single replay.
  struct Slot {
    std::size_t finding = 0;
    std::size_t rec = 0;
    std::size_t scenario = 0;
  };
  std::vector<replay::Scenario> scenarios;
  std::vector<Slot> slots;
  std::map<std::string, std::size_t> by_name;

  const auto add_slot = [&](std::size_t fi, std::size_t ri, replay::Scenario&& s) {
    const auto [it, inserted] = by_name.emplace(s.name, scenarios.size());
    if (inserted) scenarios.push_back(std::move(s));
    slots.push_back(Slot{fi, ri, it->second});
  };

  std::vector<std::size_t> sweep_findings;  // short-ecall sites: worker sweep
  for (std::size_t fi = 0; fi < report.findings.size(); ++fi) {
    const Finding& f = report.findings[fi];
    for (std::size_t ri = 0; ri < f.recommendations.size(); ++ri) {
      replay::Scenario s;
      switch (f.recommendations[ri].action) {
        case Recommendation::kMoveCallerIn:
        case Recommendation::kMoveCallerOut:
        case Recommendation::kDuplicateInEnclave:
        case Recommendation::kHybridLock:
        case Recommendation::kLockFreeStructure:
          // All of these remove the site's transitions; the body stays.
          s.name = "eliminate " + site_name(f.subject);
          s.eliminate.push_back(replay::EliminateSpec{f.subject});
          break;
        case Recommendation::kBatch:
        case Recommendation::kMerge:
          s.name = "merge " + site_name(f.subject) + " into " +
                   (f.partner ? site_name(*f.partner) : std::string("indirect parent"));
          s.merge.push_back(replay::MergeSpec{f.subject, f.partner});
          break;
        case Recommendation::kReduceMemoryUsage:
        case Recommendation::kPreloadPages:
        case Recommendation::kAlternativeMemoryManagement:
          // Best-case bound: enough EPC headroom that recorded re-faults
          // become hits.
          s.name = "epc x2";
          s.epc_pages = replay_config.recorded_epc_pages * 2;
          break;
        default:
          break;  // reorder / tail / security actions have no replay model
      }
      if (!s.name.empty()) add_slot(fi, ri, std::move(s));
    }
    if (f.kind == FindingKind::kShortCalls && f.subject.type == CallType::kEcall) {
      sweep_findings.push_back(fi);
    }
  }

  std::vector<replay::ScenarioResult> results;
  results.reserve(scenarios.size());
  for (const auto& s : scenarios) results.push_back(engine.run(s));
  for (const auto& slot : slots) {
    auto& entry = report.findings[slot.finding].recommendations[slot.rec];
    entry.predicted_speedup = results[slot.scenario].speedup();
    entry.scenario = results[slot.scenario].name;
  }

  // Short ecalls additionally get the switchless alternative, quantified by
  // a worker-count sweep (Configless-style: the count is part of the answer).
  for (const std::size_t fi : sweep_findings) {
    const auto sweep = engine.sweep_switchless(
        report.findings[fi].subject, config_.switchless_min_workers,
        config_.switchless_max_workers);
    RecommendationEntry entry{Recommendation::kSwitchless};
    entry.predicted_speedup = sweep.best_speedup;
    entry.best_workers = sweep.best_workers;
    entry.scenario = "switchless " + sweep.site_name + " x" +
                     std::to_string(sweep.best_workers);
    report.findings[fi].recommendations.push_back(std::move(entry));
  }
}

// --- tail latency: the distribution problem means cannot show ---------------
void Analyzer::detect_tail_latency(AnalysisReport& report) const {
  for (const auto& s : report.stats) {
    const auto ratio = tail_score(s.duration_ns.count, s.p50_ns, s.p99_ns, config_);
    if (!ratio) continue;
    Finding f;
    f.kind = FindingKind::kTailLatency;
    f.subject = s.key;
    f.subject_name = s.name;
    f.recommendations = {Recommendation::kInvestigateTail};
    f.detail = support::format(
        "p50 %.1fus but p99 %.1fus / p99.9 %.1fus over %zu calls — %.0fx tail the mean "
        "(%.1fus) does not show",
        static_cast<double>(s.p50_ns) / 1e3, static_cast<double>(s.p99_ns) / 1e3,
        static_cast<double>(s.p999_ns) / 1e3, s.duration_ns.count, *ratio,
        s.duration_ns.mean / 1e3);
    // Severity: excess tail time over the median, across the slowest 1%.
    f.severity = static_cast<double>(s.p99_ns - s.p50_ns) *
                 (static_cast<double>(s.duration_ns.count) * 0.01) / 1e3;
    report.findings.push_back(std::move(f));
  }
}

// --- Eq. 1-3 and SSC ----------------------------------------------------------------
namespace {

/// Turns one detector verdict for `key` into its finding.
Finding site_finding(const tracedb::TraceDatabase& db, const AnalyzerConfig& cfg,
                     const CallKey& key, const SiteCounters& c, const Verdict& v) {
  const auto name_of = [&db](const CallKey& k) {
    return db.name_of(k.enclave_id, k.type, k.call_id);
  };
  const auto pct = [](std::uint64_t n, std::uint64_t total) {
    return 100.0 * static_cast<double>(n) / static_cast<double>(total);
  };
  Finding f;
  f.kind = *finding_kind_of(v.kind);
  f.subject = key;
  f.subject_name = name_of(key);
  switch (v.kind) {
    case AlertKind::kShortCalls:
      if (key.type == CallType::kEcall) {
        // Moving the caller *in* keeps secrets inside; moving it *out* needs
        // a security evaluation (§3.1).
        f.recommendations = {Recommendation::kMoveCallerIn, Recommendation::kMoveCallerOut};
      } else {
        f.recommendations = {Recommendation::kMoveCallerOut};
        if (c.any_nested_ocall) f.recommendations.push_back(Recommendation::kDuplicateInEnclave);
      }
      f.detail = support::format(
          "%zu calls; %.1f%% < 1us, %.1f%% < 5us, %.1f%% < 10us "
          "(ecall durations transition-adjusted by %llu ns)",
          c.count, pct(c.c1, c.count), pct(c.c5, c.count), pct(c.c10, c.count),
          static_cast<unsigned long long>(
              key.type == CallType::kEcall ? cfg.ecall_transition_ns : 0));
      f.severity = static_cast<double>(c.c10);
      break;
    case AlertKind::kReorderStart:
    case AlertKind::kReorderEnd: {
      const bool at_end = v.kind == AlertKind::kReorderEnd;
      f.partner = c.top_parent();
      f.partner_name = name_of(*f.partner);
      f.recommendations = {Recommendation::kReorder};
      if (key.type == CallType::kOcall) {
        f.recommendations.push_back(Recommendation::kDuplicateInEnclave);
      }
      f.detail = support::format(
          "%zu/%zu instances nested in %s; weighted share near parent %s = %.2f (>= %.2f)",
          c.nested, c.count, f.partner_name.c_str(), at_end ? "end" : "start", v.score,
          cfg.eq2_gamma);
      f.severity = static_cast<double>(at_end ? c.end20 : c.start20);
      break;
    }
    case AlertKind::kBatchable:
    case AlertKind::kMergeable: {
      const PairStats& ps = c.by_parent.at(v.partner);
      const double ip_fraction = static_cast<double>(ps.count) / static_cast<double>(c.count);
      f.partner = v.partner;
      f.partner_name = name_of(v.partner);
      f.recommendations = {v.kind == AlertKind::kBatchable ? Recommendation::kBatch
                                                           : Recommendation::kMerge};
      f.recommendations.push_back(key.type == CallType::kEcall ? Recommendation::kMoveCallerIn
                                                               : Recommendation::kMoveCallerOut);
      f.detail = support::format(
          "%zu instances follow %s (%.0f%% of %zu); gaps: %.0f%% <= 1us, %.0f%% <= 5us, "
          "%.0f%% <= 10us, %.0f%% <= 20us; weighted score %.2f >= %.2f",
          ps.count, f.partner_name.c_str(), 100.0 * ip_fraction, c.count, pct(ps.p1, ps.count),
          pct(ps.p5, ps.count), pct(ps.p10, ps.count), pct(ps.p20, ps.count), v.score,
          cfg.eq3_epsilon);
      f.severity = static_cast<double>(ps.count) * 2.0;  // merging saves round trips
      break;
    }
    default: {  // kSyncContention
      const bool is_sleep = c.kind == OcallKind::kSleep || c.kind == OcallKind::kWakeOneAndSleep;
      f.recommendations = {Recommendation::kHybridLock, Recommendation::kLockFreeStructure};
      f.detail = support::format(
          "%zu %s ocalls, %zu shorter than 10us — the transition dominates; consider keeping "
          "the contention inside the enclave",
          c.count, is_sleep ? "sleep" : "wake-up", c.short_sync);
      f.severity = static_cast<double>(c.short_sync);
      break;
    }
  }
  return f;
}

/// Findings go out detector by detector (Eq. 1, Eq. 2, Eq. 3, SSC), and by
/// site key within each detector.
std::size_t detector_rank(AlertKind k) {
  switch (k) {
    case AlertKind::kShortCalls: return 0;
    case AlertKind::kReorderStart:
    case AlertKind::kReorderEnd: return 1;
    case AlertKind::kBatchable:
    case AlertKind::kMergeable: return 2;
    default: return 3;
  }
}

/// Security check 1's finding: all `count` instances of ecall site `key` ran
/// during one of the `hosts` calls.
Finding private_ecall_finding(const tracedb::TraceDatabase& db, const CallKey& key,
                              const std::string& name, std::size_t count,
                              const std::set<CallKey>& hosts) {
  std::set<std::string> host_names;
  for (const auto& h : hosts) host_names.insert(db.name_of(h.enclave_id, h.type, h.call_id));
  Finding f;
  f.kind = FindingKind::kPrivateEcallCandidate;
  f.subject = key;
  f.subject_name = name;
  f.recommendations = {Recommendation::kMakePrivate};
  const std::vector<std::string> names(host_names.begin(), host_names.end());
  f.detail = support::format(
      "all %zu instances were issued during ocalls; allow it from: %s "
      "(note: this recommendation is workload-dependent)",
      count, support::join(names, ", ").c_str());
  f.severity = 1.0;
  return f;
}

void set_percentiles(CallStats& cs, const telemetry::HdrSnapshot& snap) {
  cs.p50_ns = snap.value_at_percentile(50);
  cs.p90_ns = snap.value_at_percentile(90);
  cs.p99_ns = snap.value_at_percentile(99);
  cs.p999_ns = snap.value_at_percentile(99.9);
}

}  // namespace

Analyzer::SiteWalk Analyzer::walk_sites(AnalysisReport& report,
                                        const tracedb::TraceIndex& index) const {
  const auto& calls = db_.calls();
  const auto key_of = [](const CallRecord& c) { return CallKey{c.enclave_id, c.type, c.call_id}; };
  // Per-enclave overview rows; instances below the short-call threshold are
  // summed as integers (ecall, ocall) and divided once at the end.
  struct Tally {
    EnclaveOverview ov;
    std::array<std::size_t, 2> below{};
  };
  std::map<tracedb::EnclaveId, Tally> enclaves;
  for (const auto& e : db_.enclaves()) enclaves[e.enclave_id].ov.name = e.name;

  SiteWalk walk;
  std::vector<Verdict> verdicts;
  for (const auto& [key, instances] : index.sites) {
    CallStats cs;
    cs.key = key;
    cs.name = db_.name_of(key.enclave_id, key.type, key.call_id);
    SiteCounters counters;
    std::set<CallKey> hosts;  // direct parents of the site's nested ecalls
    std::vector<std::uint64_t> durations;
    durations.reserve(instances.size());
    std::size_t below = 0;
    for (const auto idx : instances) {
      const auto i = static_cast<std::size_t>(idx);
      const CallRecord& c = calls[i];
      durations.push_back(c.duration());
      cs.aex_total += c.aex_count;
      if (adjusted_ns(c.type, c.duration(), config_) < config_.short_call_ns) ++below;
      counters.add_call(c.type, c.duration(), c.kind, c.parent != kNoParent, config_);
      if (c.parent != kNoParent) {
        const CallRecord& p = calls[static_cast<std::size_t>(c.parent)];
        counters.add_parent_start(key_of(p), c.start_ns - p.start_ns);
        counters.add_parent_end(p.end_ns, c.end_ns);
        if (key.type == CallType::kEcall) hosts.insert(key_of(p));
      }
      if (index.indirect[i] != kNoParent) {
        const CallRecord& p = calls[static_cast<std::size_t>(index.indirect[i])];
        counters.add_indirect_parent(key_of(p), p.end_ns, c.start_ns);
      }
    }

    Tally& tally = enclaves[key.enclave_id];
    if (key.type == CallType::kEcall) {
      ++tally.ov.ecalls_called;
      tally.ov.ecall_instances += instances.size();
      tally.below[0] += below;
    } else if (key.type == CallType::kOcall) {
      ++tally.ov.ocalls_called;
      tally.ov.ocall_instances += instances.size();
      tally.below[1] += below;
    }

    evaluate(key, counters, config_, verdicts);
    for (const Verdict& v : verdicts) {
      walk.by_detector[detector_rank(v.kind)].push_back(
          site_finding(db_, config_, key, counters, v));
    }

    if (!hosts.empty()) {
      auto& nested = walk.nested[key.enclave_id];
      for (const auto& host : hosts) nested[host].insert(cs.name);
      // Skip if the EDL already declares it private.
      const auto spec = interfaces_.find(key.enclave_id);
      const bool declared_private = spec != interfaces_.end() &&
                                    key.call_id < spec->second.ecalls.size() &&
                                    !spec->second.ecalls[key.call_id].is_public;
      if (counters.nested == instances.size() && !declared_private) {
        walk.private_ecalls.push_back(
            private_ecall_finding(db_, key, cs.name, instances.size(), hosts));
      }
    }

    cs.duration_ns = support::summarize(durations);
    cs.fraction_below_10us = static_cast<double>(below) / static_cast<double>(instances.size());
    // Percentiles: prefer the v4 latency table.  A recording folds it from
    // these same calls at detach/flush, so on a whole trace both ways give
    // the same buckets; the table decides when the call table holds only
    // part of the trace (a store range load).  Without a row, reconstruct
    // with the same HDR geometry, so quantization is identical either way.
    if (const tracedb::LatencyRecord* lat =
            db_.find_latency(key.enclave_id, key.type, key.call_id);
        lat != nullptr && lat->count > 0) {
      set_percentiles(cs, tracedb::snapshot_of(*lat));
    } else {
      telemetry::HdrSnapshot snap;
      for (const auto d : durations) snap.record(d);
      set_percentiles(cs, snap);
    }
    report.stats.push_back(std::move(cs));
  }
  // Sites present only in the latency table still get a stats row: a fleet
  // checkpoint (sgxperf serve) persists cumulative HDR histograms without
  // raw call instances, and the histogram carries count, sum and
  // percentiles on its own.
  for (const auto& lat : db_.latencies()) {
    if (lat.count == 0) continue;
    const tracedb::CallKey key{lat.enclave_id, lat.type, lat.call_id};
    if (index.sites.contains(key)) continue;  // raw calls covered it
    CallStats cs;
    cs.key = key;
    cs.name = db_.name_of(key.enclave_id, key.type, key.call_id);
    cs.duration_ns.count = static_cast<std::size_t>(lat.count);
    cs.duration_ns.mean = static_cast<double>(lat.sum_ns) / static_cast<double>(lat.count);
    set_percentiles(cs, tracedb::snapshot_of(lat));
    cs.duration_ns.median = static_cast<double>(cs.p50_ns);
    report.stats.push_back(std::move(cs));
  }
  std::stable_sort(report.stats.begin(), report.stats.end(),
                   [](const CallStats& a, const CallStats& b) {
                     return a.duration_ns.count > b.duration_ns.count;
                   });

  const auto fraction = [](std::size_t n, std::size_t total) {
    return total == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(total);
  };
  for (auto& [id, tally] : enclaves) {
    EnclaveOverview& ov = tally.ov;
    ov.enclave_id = id;
    if (const auto spec = interfaces_.find(id); spec != interfaces_.end()) {
      ov.ecalls_defined = spec->second.ecalls.size();
      ov.ocalls_defined = spec->second.ocalls.size();
    }
    ov.ecalls_below_10us = fraction(tally.below[0], ov.ecall_instances);
    ov.ocalls_below_10us = fraction(tally.below[1], ov.ocall_instances);
    report.overviews.push_back(std::move(ov));
  }
  return walk;
}

// --- paging: the overviews' page counts and the paging detector ------------------
void Analyzer::detect_paging(AnalysisReport& report) const {
  std::map<tracedb::EnclaveId, std::pair<std::size_t, std::size_t>> events;  // ins, outs
  for (const auto& p : db_.paging()) {
    auto& [ins, outs] = events[p.enclave_id];
    ++(p.direction == tracedb::PageDirection::kPageIn ? ins : outs);
  }
  for (const auto& [eid, in_out] : events) {
    // Overviews are in enclave-id order.
    const auto ov = std::lower_bound(
        report.overviews.begin(), report.overviews.end(), eid,
        [](const EnclaveOverview& o, tracedb::EnclaveId id) { return o.enclave_id < id; });
    if (ov != report.overviews.end() && ov->enclave_id == eid) {
      ov->page_ins = in_out.first;
      ov->page_outs = in_out.second;
    }
    const std::size_t count = in_out.first + in_out.second;
    if (!paging_fires(count, config_)) continue;
    Finding f;
    f.kind = FindingKind::kPaging;
    f.subject = CallKey{eid, CallType::kEcall, 0};
    f.subject_name = support::format("enclave %llu", static_cast<unsigned long long>(eid));
    for (const auto& e : db_.enclaves()) {
      if (e.enclave_id == eid && !e.name.empty()) f.subject_name = e.name;
    }
    f.recommendations = {Recommendation::kReduceMemoryUsage, Recommendation::kPreloadPages,
                         Recommendation::kAlternativeMemoryManagement};
    f.detail = support::format(
        "%zu EPC paging events — each one costs a transition plus page re-encryption", count);
    f.severity = static_cast<double>(count) * 4.0;  // paging is the costliest pattern
    report.findings.push_back(std::move(f));
  }
}

// --- interface orderliness (v6 model embedded in the trace) -------------------------
void Analyzer::detect_orderliness(AnalysisReport& report) const {
  const OrderModel model = model_from_rules(db_.order_rules());
  if (model.empty()) return;

  for (const auto& a : check_trace(db_, model)) {
    const std::uint64_t count = a.detail & 0xffffffffull;
    const auto thread = static_cast<std::uint32_t>(a.detail >> 32);
    Finding f;
    f.kind = finding_kind_of(a.kind).value_or(FindingKind::kOutOfOrderEcall);
    f.subject = CallKey{a.enclave_id, a.type, a.call_id};
    f.subject_name = db_.name_of(a.enclave_id, a.type, a.call_id);
    f.recommendations = {Recommendation::kAuditCallSequence};
    f.detail = support::format(
        "%llu violation%s, first on thread %u at %.3fms (virtual)",
        static_cast<unsigned long long>(count), count == 1 ? "" : "s", thread,
        static_cast<double>(a.onset_ns) / 1e6);
    // Orderliness violations outrank every perf pattern: a wrong call
    // sequence is a correctness/security alarm, not a tuning opportunity.
    f.severity = static_cast<double>(count) * 1e6;
    report.findings.push_back(std::move(f));
  }
}

// --- interface security (§3.6, §4.3.2) ----------------------------------------------
void Analyzer::analyze_security(AnalysisReport& report, SiteWalk& walk) const {
  // 1. Private-ecall candidates: every instance was issued during an ocall
  //    (found by the site walk).
  for (auto& f : walk.private_ecalls) report.findings.push_back(std::move(f));

  // 2a. Without an EDL, "the analyser will state the smallest set of allowed
  //     ecalls" (§4.3.2): report, per ocall that hosted nested ecalls, the
  //     exact set observed — the minimal allow() list the developer needs.
  {
    std::map<CallKey, std::set<std::string>> observed_per_ocall;
    for (const auto& [eid, by_host] : walk.nested) {
      if (interfaces_.contains(eid)) continue;  // EDL supplied: 2b handles it
      for (const auto& [host, names] : by_host) {
        observed_per_ocall[host].insert(names.begin(), names.end());
      }
    }
    for (const auto& [okey, ecall_names] : observed_per_ocall) {
      Finding f;
      f.kind = FindingKind::kMinimalAllowSet;
      f.subject = okey;
      f.subject_name = db_.name_of(okey.enclave_id, okey.type, okey.call_id);
      f.recommendations = {Recommendation::kRestrictAllowedEcalls};
      std::vector<std::string> names(ecall_names.begin(), ecall_names.end());
      f.detail = support::format("allow (%s) suffices for this workload",
                                 support::join(names, ", ").c_str());
      f.severity = 0.5;
      report.findings.push_back(std::move(f));
    }
  }

  // 2b. allow() lists vs observed nesting, and user_check pointers (EDL only).
  for (const auto& [eid, spec] : interfaces_) {
    // Observed: which ecalls actually ran during each ocall.
    std::map<tracedb::CallId, std::set<std::string>> observed;  // ocall id -> ecall names
    if (const auto nested = walk.nested.find(eid); nested != walk.nested.end()) {
      for (const auto& [host, names] : nested->second) {
        observed[host.call_id].insert(names.begin(), names.end());
      }
    }
    for (std::size_t oid = 0; oid < spec.ocalls.size(); ++oid) {
      const auto& o = spec.ocalls[oid];
      if (o.allowed_ecalls.empty()) continue;
      const auto& used = observed[static_cast<tracedb::CallId>(oid)];
      std::vector<std::string> excess;
      for (const auto& allowed : o.allowed_ecalls) {
        if (!used.contains(allowed)) excess.push_back(allowed);
      }
      if (excess.empty()) continue;
      Finding f;
      f.kind = FindingKind::kExcessAllowedEcalls;
      f.subject = CallKey{eid, CallType::kOcall, static_cast<tracedb::CallId>(oid)};
      f.subject_name = o.name;
      f.recommendations = {Recommendation::kRestrictAllowedEcalls};
      f.detail = support::format("allowed but never called during this ocall: %s "
                                 "(note: this recommendation is workload-dependent)",
                                 support::join(excess, ", ").c_str());
      f.severity = static_cast<double>(excess.size());
      report.findings.push_back(std::move(f));
    }

    // user_check pointers.
    auto flag_user_check = [&](const CallKey& key, const std::string& name,
                               const std::vector<sgxsim::edl::Parameter>& params) {
      std::vector<std::string> bad;
      for (const auto& p : params) {
        if (p.direction == sgxsim::edl::PointerDirection::kUserCheck) bad.push_back(p.name);
      }
      if (bad.empty()) return;
      Finding f;
      f.kind = FindingKind::kUserCheckPointer;
      f.subject = key;
      f.subject_name = name;
      f.recommendations = {Recommendation::kCheckPointerHandling};
      f.detail = support::format("user_check pointer parameter(s): %s — vulnerable to "
                                 "buffer overflows, TOCTTOU and in-enclave addresses if "
                                 "left unchecked",
                                 support::join(bad, ", ").c_str());
      f.severity = static_cast<double>(bad.size());
      report.findings.push_back(std::move(f));
    };
    for (std::size_t i = 0; i < spec.ecalls.size(); ++i) {
      flag_user_check(CallKey{eid, CallType::kEcall, static_cast<tracedb::CallId>(i)},
                      spec.ecalls[i].name, spec.ecalls[i].params);
    }
    for (std::size_t i = 0; i < spec.ocalls.size(); ++i) {
      flag_user_check(CallKey{eid, CallType::kOcall, static_cast<tracedb::CallId>(i)},
                      spec.ocalls[i].name, spec.ocalls[i].params);
    }
  }
}

}  // namespace perf
