#include "perf/detectors.hpp"

namespace perf {

using support::Nanoseconds;
using tracedb::AlertKind;
using tracedb::CallKey;
using tracedb::CallType;
using tracedb::OcallKind;

Nanoseconds adjusted_ns(CallType type, Nanoseconds raw, const AnalyzerConfig& cfg) noexcept {
  if (type != CallType::kEcall) return raw;
  return raw > cfg.ecall_transition_ns ? raw - cfg.ecall_transition_ns : 0;
}

void SiteCounters::add_call(CallType type, Nanoseconds raw, OcallKind ocall_kind, bool has_parent,
                            const AnalyzerConfig& cfg) {
  ++count;
  const Nanoseconds adj = adjusted_ns(type, raw, cfg);
  if (adj < 1'000) ++c1;
  if (adj < 5'000) ++c5;
  if (adj < 10'000) ++c10;
  if (type == CallType::kOcall) {
    if (kind == OcallKind::kGeneric) kind = ocall_kind;
    if (raw < cfg.short_call_ns) ++short_sync;
    if (has_parent) any_nested_ocall = true;
  }
}

void SiteCounters::add_parent_start(const CallKey& parent, Nanoseconds from_start) {
  ++nested;
  ++parent_freq[parent];
  if (from_start <= 10'000) ++start10;
  if (from_start <= 20'000) ++start20;
}

void SiteCounters::add_parent_end(Nanoseconds parent_end, Nanoseconds call_end) {
  if (parent_end < call_end) return;
  const Nanoseconds to_end = parent_end - call_end;
  if (to_end <= 10'000) ++end10;
  if (to_end <= 20'000) ++end20;
}

void SiteCounters::add_indirect_parent(const CallKey& parent, Nanoseconds parent_end,
                                       Nanoseconds call_start) {
  auto& ps = by_parent[parent];
  ++ps.count;
  if (call_start < parent_end) return;
  const Nanoseconds gap = call_start - parent_end;
  if (gap <= 1'000) ++ps.p1;
  if (gap <= 5'000) ++ps.p5;
  if (gap <= 10'000) ++ps.p10;
  if (gap <= 20'000) ++ps.p20;
}

CallKey SiteCounters::top_parent() const {
  CallKey top{};
  std::uint64_t best = 0;
  for (const auto& [key, n] : parent_freq) {
    if (n > best) {
      best = n;
      top = key;
    }
  }
  return top;
}

void evaluate(const CallKey& site, const SiteCounters& c, const AnalyzerConfig& cfg,
              std::vector<Verdict>& out) {
  out.clear();
  if (c.count >= cfg.min_calls) {
    const auto total = static_cast<double>(c.count);
    const auto share = [total](std::uint64_t n) { return static_cast<double>(n) / total; };

    // Eq. 1: "35% of calls are shorter than 1us, 50% shorter than 5us or
    // 65% shorter than 10us" (default weights).
    if (share(c.c1) >= cfg.eq1_alpha || share(c.c5) >= cfg.eq1_beta ||
        share(c.c10) >= cfg.eq1_gamma) {
      out.push_back({AlertKind::kShortCalls, share(c.c10), {}});
    }

    // Eq. 2: weighted share of instances near the direct parent's start/end.
    if (c.nested > 0) {
      const double s_start = share(c.start10) * cfg.eq2_alpha + share(c.start20) * cfg.eq2_beta;
      const double s_end = share(c.end10) * cfg.eq2_alpha + share(c.end20) * cfg.eq2_beta;
      for (const auto& [kind, s] : {std::pair{AlertKind::kReorderStart, s_start},
                                    std::pair{AlertKind::kReorderEnd, s_end}}) {
        if (s >= cfg.eq2_gamma) out.push_back({kind, s, {}});
      }
    }

    // Eq. 3: "the analyser only considers calls for merging that are
    // indirect parents at least 35% of the time (λ)"; the gap score then
    // weighs how close the call follows that parent.
    for (const auto& [parent, ps] : c.by_parent) {
      if (share(ps.count) < cfg.eq3_lambda) continue;
      const auto p_total = static_cast<double>(ps.count);
      const double score = static_cast<double>(ps.p1) / p_total * cfg.eq3_alpha +
                           static_cast<double>(ps.p5) / p_total * cfg.eq3_beta +
                           static_cast<double>(ps.p10) / p_total * cfg.eq3_gamma +
                           static_cast<double>(ps.p20) / p_total * cfg.eq3_delta;
      if (score < cfg.eq3_epsilon) continue;
      // A call that is its own indirect parent batches; otherwise it merges.
      out.push_back(
          {parent == site ? AlertKind::kBatchable : AlertKind::kMergeable, score, parent});
    }
  }

  // SSC: wake-ups are "typically very short (<10us)" — every one is a wasted
  // transition; short sleeps signal a briefly-held lock (§3.4).  No
  // min_calls gate: two short sync ocalls already show the pattern.
  if (site.type == CallType::kOcall && c.kind != OcallKind::kGeneric && c.count >= 2 &&
      c.short_sync > 0) {
    out.push_back({AlertKind::kSyncContention, static_cast<double>(c.short_sync), {}});
  }
}

std::optional<double> tail_score(std::uint64_t count, std::uint64_t p50, std::uint64_t p99,
                                 const AnalyzerConfig& cfg) noexcept {
  if (count < cfg.min_calls || p99 < cfg.tail_min_ns) return std::nullopt;
  const auto p50d = static_cast<double>(p50 > 0 ? p50 : 1);
  if (static_cast<double>(p99) < cfg.tail_ratio * p50d) return std::nullopt;
  return static_cast<double>(p99) / p50d;
}

bool paging_fires(std::uint64_t events, const AnalyzerConfig& cfg) noexcept {
  return events >= cfg.paging_threshold;
}

}  // namespace perf
