#include "perf/online.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

namespace perf {

using support::Nanoseconds;
using tracedb::AlertKind;
using tracedb::AlertRecord;
using tracedb::CallKey;
using tracedb::CallType;

namespace {

/// Direct-parent instance id for the Eq. 3 same-key map when a call has no
/// parent: mirrors tracedb::kNoParent as a map key (no real start time can
/// collide — the virtual clock never reaches 2^64-1).
constexpr std::uint64_t kNoParentInstance = ~0ull;

}  // namespace

const char* to_string(AlertKind k) noexcept {
  switch (k) {
    case AlertKind::kShortCalls: return "short_calls";
    case AlertKind::kReorderStart: return "reorder_start";
    case AlertKind::kReorderEnd: return "reorder_end";
    case AlertKind::kBatchable: return "batchable";
    case AlertKind::kMergeable: return "mergeable";
    case AlertKind::kSyncContention: return "sync_contention";
    case AlertKind::kPaging: return "paging";
    case AlertKind::kTailLatency: return "tail_latency";
    case AlertKind::kLatencyShift: return "latency_shift";
    case AlertKind::kOutOfOrderEcall: return "out_of_order_ecall";
    case AlertKind::kReentrantEcall: return "reentrant_ecall";
    case AlertKind::kUseBeforeInit: return "use_before_init";
    case AlertKind::kUseAfterDestroy: return "use_after_destroy";
    case AlertKind::kPhaseViolation: return "phase_violation";
  }
  return "?";
}

OnlineAnalyzer::OnlineAnalyzer(OnlineConfig config) : config_(std::move(config)) {
  set_order_model(std::move(config_.order));
}

void OnlineAnalyzer::set_order_model(OrderModel model) {
  if (events_seen_ != 0) {
    throw std::logic_error("OnlineAnalyzer: order model set after the first event");
  }
  config_.order = std::move(model);
  order_checker_.reset();
  if (!config_.order.empty()) {
    order_checker_.emplace(config_.order,
                           [this](const OrderViolation& v) { on_order_violation(v); });
  }
}

void OnlineAnalyzer::feed(const StreamEvent& ev) {
  ++events_seen_;
  roll_windows(ev.end_ns);
  switch (ev.kind) {
    case StreamEvent::Kind::kCall:
      on_call(ev);
      break;
    case StreamEvent::Kind::kEnclaveCreated:
      if (order_checker_) order_checker_->on_enclave_created(ev.enclave_id, ev.start_ns);
      break;
    case StreamEvent::Kind::kEnclaveDestroyed:
      if (order_checker_) order_checker_->on_enclave_destroyed(ev.enclave_id, ev.start_ns);
      break;
    default:
      on_instant(ev);
      break;
  }
}

void OnlineAnalyzer::roll_windows(std::uint64_t ts) {
  const std::uint64_t period = config_.window_ns;
  if (period == 0) return;
  if (!window_open_) {
    window_start_ = ts / period * period;
    window_open_ = true;
    return;
  }
  // Stragglers (cross-thread reordering in the ring) fold into the open
  // window; boundaries only ever move forward.
  while (ts >= window_start_ + period) {
    close_window(window_start_ + period);
    window_start_ += period;
    ++window_index_;
  }
}

void OnlineAnalyzer::on_call(const StreamEvent& ev) {
  if (order_checker_) {
    const bool nested = ev.parent_valid && ev.parent_type == CallType::kOcall;
    order_checker_->on_call(ev.call_type, ev.enclave_id, ev.call_id, ev.thread_id, ev.start_ns,
                            ev.end_ns, nested);
  }

  const CallKey key{ev.enclave_id, ev.call_type, ev.call_id};
  auto [it, inserted] = sites_.try_emplace(key, config_.change);
  SiteState& st = it->second;

  const std::uint64_t raw = ev.end_ns - ev.start_ns;
  st.counters.add_call(ev.call_type, raw, ev.ocall_kind, ev.parent_valid, config_.analyzer);
  ++st.window_calls;
  st.touched_this_window = true;
  ++window_calls_;
  st.window_aex += ev.aex_count;
  st.latency.record(raw);

  ThreadState& ts = threads_[ev.thread_id];

  // --- Eq. 2, start side + parent histogram ---------------------------------
  if (ev.parent_valid) {
    st.counters.add_parent_start(CallKey{ev.enclave_id, ev.parent_type, ev.parent_call_id},
                                 ev.start_ns - ev.parent_start_ns);

    // End side needs the parent's end timestamp — buffer until the parent's
    // own completion event arrives (parents always complete after nested
    // children, and the stream preserves per-thread order).
    auto& bucket = ts.pending[ev.parent_start_ns];
    bucket.push_back(PendingChild{key, ev.end_ns});
    if (ts.pending.size() > config_.max_pending_parents) {
      auto oldest = ts.pending.begin();
      pending_evicted_ += oldest->second.size();
      ts.pending.erase(oldest);
    }
  }

  // --- Eq. 3: indirect parent via the (type, direct-parent instance) map ----
  {
    const std::pair<CallType, std::uint64_t> same_key{
        ev.call_type, ev.parent_valid ? ev.parent_start_ns : kNoParentInstance};
    auto prev = ts.last_same_key.find(same_key);
    if (prev != ts.last_same_key.end()) {
      st.counters.add_indirect_parent(prev->second.site, prev->second.end_ns, ev.start_ns);
    }
    ts.last_same_key[same_key] = ThreadState::LastCall{key, ev.end_ns};
    // This call's own children (nested calls of the other type) are done.
    const CallType child_type =
        ev.call_type == CallType::kEcall ? CallType::kOcall : CallType::kEcall;
    ts.last_same_key.erase({child_type, ev.start_ns});
  }

  // --- Eq. 2, end side: this completion is some children's parent ----------
  auto waiting = ts.pending.find(ev.start_ns);
  if (waiting != ts.pending.end()) {
    for (const PendingChild& child : waiting->second) {
      auto child_it = sites_.find(child.site);
      if (child_it == sites_.end()) continue;
      child_it->second.counters.add_parent_end(ev.end_ns, child.end_ns);
      if (child.site != key) {
        reconcile_site(child.site, child_it->second, /*with_tail=*/false, ev.end_ns);
      }
    }
    ts.pending.erase(waiting);
  }

  reconcile_site(key, st, /*with_tail=*/false, ev.end_ns);
}

void OnlineAnalyzer::on_instant(const StreamEvent& ev) {
  if (ev.kind == StreamEvent::Kind::kAex) {
    ++window_aexs_;
    return;
  }
  // kPaging: call_id carries the direction (0 = in, 1 = out).
  PagingState& pg = paging_[ev.enclave_id];
  ++pg.total;
  if (ev.call_id == 0) {
    ++pg.window_ins;
  } else {
    ++pg.window_outs;
  }
  if (!pg.alerted) reconcile_paging(ev.enclave_id, pg, ev.end_ns);
}

void OnlineAnalyzer::reconcile_site(const CallKey& site, SiteState& st, bool with_tail,
                                    std::uint64_t now) {
  // One alert per (kind, site): Eq. 3's per-partner verdicts collapse to the
  // best score.  -1 marks a predicate that does not hold.
  std::array<double, tracedb::kAlertKindCount> best;
  best.fill(-1.0);
  const auto at = [&best](AlertKind k) -> double& { return best[static_cast<std::size_t>(k)]; };
  evaluate(site, st.counters, config_.analyzer, verdicts_);
  for (const Verdict& v : verdicts_) at(v.kind) = std::max(at(v.kind), v.score);
  if (with_tail) {
    const auto& snap = st.latency.cumulative();
    const std::size_t first = st.latency.cumulative_first();
    if (const auto ratio =
            tail_score(st.counters.count, snap.value_at_percentile(50, first),
                       snap.value_at_percentile(99, first), config_.analyzer)) {
      at(AlertKind::kTailLatency) = *ratio;
    }
  }

  static constexpr AlertKind kSiteKinds[] = {
      AlertKind::kShortCalls, AlertKind::kReorderStart,   AlertKind::kReorderEnd,
      AlertKind::kBatchable,  AlertKind::kMergeable,      AlertKind::kSyncContention,
      AlertKind::kTailLatency,
  };
  static_assert(tracedb::kAlertKindCount <= 16, "SiteState::active_kinds is 16 bits");
  const auto bit = [](AlertKind k) {
    return static_cast<std::uint16_t>(1u << static_cast<unsigned>(k));
  };
  // All raises, then all resolves, each in kind order: the sink sees them
  // in that order.
  for (const AlertKind kind : kSiteKinds) {
    if (at(kind) < 0.0 || (st.active_kinds & bit(kind)) != 0) continue;
    // SSC reports its short-instance count; the rest their score in 1/1000.
    const double detail = kind == AlertKind::kSyncContention ? at(kind) : at(kind) * 1000.0;
    raise_alert(kind, site, now, static_cast<std::uint64_t>(detail));
    st.active_kinds |= bit(kind);
  }
  for (const AlertKind kind : kSiteKinds) {
    if (at(kind) < 0.0 && (st.active_kinds & bit(kind)) != 0 &&
        (with_tail || kind != AlertKind::kTailLatency)) {
      resolve_alert(kind, site, now);
      st.active_kinds &= static_cast<std::uint16_t>(~bit(kind));
    }
  }
}

void OnlineAnalyzer::reconcile_paging(tracedb::EnclaveId eid, PagingState& pg,
                                      std::uint64_t now) {
  // The event count only grows — a paging alert never resolves, so it
  // latches.
  if (pg.alerted || !paging_fires(pg.total, config_.analyzer)) return;
  // Subject: the enclave as a pseudo-site, as in the post-mortem finding.
  raise_alert(AlertKind::kPaging, CallKey{eid, CallType::kEcall, 0}, now, pg.total);
  pg.alerted = true;
}

void OnlineAnalyzer::on_order_violation(const OrderViolation& v) {
  // Same fold as OrderAlertFolder: the first violation per (kind, site)
  // raises the alert with detail = thread<<32 | 1; repeats bump the count
  // word in place.  Orderliness alerts never resolve (see reconcile_site's
  // kind lists), so active_ always holds the live index.
  const CallKey site{v.enclave_id, CallType::kEcall, v.call_id};
  const auto it = active_.find({v.kind, site});
  if (it != active_.end()) {
    ++alerts_[it->second].detail;
    return;
  }
  raise_alert(v.kind, site, v.at_ns,
              (static_cast<std::uint64_t>(v.thread_id) << 32) | 1u);
}

void OnlineAnalyzer::raise_alert(AlertKind kind, const CallKey& site, std::uint64_t now,
                                 std::uint64_t detail) {
  AlertRecord rec;
  rec.kind = kind;
  rec.enclave_id = site.enclave_id;
  rec.type = site.type;
  rec.call_id = site.call_id;
  rec.onset_ns = now;
  rec.resolved_ns = 0;
  rec.window_index = window_index_;
  rec.detail = detail;
  active_[{kind, site}] = alerts_.size();
  alerts_.push_back(rec);
  if (sink_) sink_(rec, /*resolved=*/false);
}

void OnlineAnalyzer::resolve_alert(AlertKind kind, const CallKey& site, std::uint64_t now) {
  const auto it = active_.find({kind, site});
  if (it == active_.end()) return;
  AlertRecord& rec = alerts_[it->second];
  rec.resolved_ns = now > rec.onset_ns ? now : rec.onset_ns;
  active_.erase(it);
  if (sink_) sink_(rec, /*resolved=*/true);
}

void OnlineAnalyzer::close_window(std::uint64_t window_end) {
  // Latency-shift alerts are change-point markers: they live exactly one
  // window, so resolve survivors from earlier windows first.
  expired_.clear();
  for (const auto& [k, idx] : active_) {
    if (k.first == AlertKind::kLatencyShift && alerts_[idx].window_index < window_index_) {
      expired_.push_back(k);
    }
  }
  for (const auto& [kind, site] : expired_) resolve_alert(kind, site, window_end);

  std::uint64_t page_ins = 0;
  std::uint64_t page_outs = 0;
  for (auto& [eid, pg] : paging_) {
    page_ins += pg.window_ins;
    page_outs += pg.window_outs;
    pg.window_ins = 0;
    pg.window_outs = 0;
  }

  for (auto& [key, st] : sites_) {
    if (!st.touched_this_window) continue;
    const telemetry::HdrSnapshot& delta = st.latency.window_delta();
    const std::size_t first = st.latency.window_first();

    tracedb::WindowSiteRecord row;
    row.window_index = window_index_;
    row.enclave_id = key.enclave_id;
    row.type = key.type;
    row.call_id = key.call_id;
    row.calls = st.window_calls;
    row.aex_count = st.window_aex;
    row.p50_ns = delta.value_at_percentile(50, first);
    row.p99_ns = delta.value_at_percentile(99, first);
    window_sites_.push_back(row);
    if (window_sink_) sink_sites_.push_back({row, delta});

    if (delta.count() > 0 && st.change.observe(delta.mean())) {
      raise_alert(AlertKind::kLatencyShift, key, window_end,
                  static_cast<std::uint64_t>(st.change.deviation() * 1000.0));
    }

    // Percentile predicates (tail) run here, on the cumulative state.
    reconcile_site(key, st, /*with_tail=*/true, window_end);

    st.latency.checkpoint();
    st.window_calls = 0;
    st.window_aex = 0;
    st.touched_this_window = false;
  }

  tracedb::WindowRecord win;
  win.window_index = window_index_;
  win.start_ns = window_start_;
  win.end_ns = window_end;
  win.calls = window_calls_;
  win.aexs = window_aexs_;
  win.page_ins = page_ins;
  win.page_outs = page_outs;
  if (externals_) {
    const WindowExternals ext = externals_();
    win.stream_dropped = ext.stream_dropped;
    win.switchless_calls = ext.switchless_calls;
    win.switchless_fallbacks = ext.switchless_fallbacks;
    win.switchless_wasted_ns = ext.switchless_wasted_ns;
  }
  win.active_alerts = static_cast<std::uint32_t>(active_.size());
  windows_.push_back(win);
  if (window_sink_) {
    window_sink_(win, sink_sites_);
    sink_sites_.clear();
  }

  window_calls_ = 0;
  window_aexs_ = 0;
}

void OnlineAnalyzer::finish(Nanoseconds end_ns) {
  if (finished_) return;
  finished_ = true;

  // Flush use-before-init candidates for enclaves whose init never landed
  // before sealing the last window, so the alerts make it into the tables.
  if (order_checker_) order_checker_->finish();

  if (window_open_) {
    const std::uint64_t window_end =
        end_ns > window_start_ ? static_cast<std::uint64_t>(end_ns) : window_start_;
    close_window(window_end);
    ++window_index_;
  }

  // Final reconciliation: every site, every predicate — after this the
  // active set is exactly the post-mortem analyser's verdict set (change
  // markers excluded: they are online-only and expire below).
  for (auto& [key, st] : sites_) reconcile_site(key, st, /*with_tail=*/true, end_ns);
  for (auto& [eid, pg] : paging_) reconcile_paging(eid, pg, end_ns);

  std::vector<std::pair<AlertKind, CallKey>> shifts;
  for (const auto& [k, idx] : active_) {
    if (k.first == AlertKind::kLatencyShift) shifts.push_back(k);
  }
  for (const auto& [kind, site] : shifts) resolve_alert(kind, site, end_ns);
}

void OnlineAnalyzer::persist(tracedb::TraceDatabase& db) const {
  db.set_window_period(config_.window_ns);
  for (const auto& w : windows_) db.add_window(w);
  for (const auto& s : window_sites_) db.add_window_site(s);
  for (const auto& a : alerts_) db.add_alert(a);
  // Embed the model so the persisted trace is self-checking: `sgxperf order
  // check` re-validates against the same rules without a side-channel file.
  if (!config_.order.empty()) db.set_order_rules(rules_from_model(config_.order));
}

std::vector<AlertRecord> OnlineAnalyzer::active_alerts() const {
  std::vector<AlertRecord> out;
  for (const auto& a : alerts_) {
    if (a.resolved_ns == 0) out.push_back(a);
  }
  return out;
}

}  // namespace perf
