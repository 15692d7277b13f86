#include "perf/session.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "sgxsim/runtime.hpp"
#include "support/json.hpp"
#include "support/strutil.hpp"

namespace perf {

std::string alert_json(const tracedb::AlertRecord& alert, bool resolved,
                       const std::string& site_name) {
  support::json::Writer w;
  w.begin_object();
  w.kv("schema_version", support::json::kSchemaVersion);
  w.kv("event", resolved ? "resolve" : "raise");
  w.kv("alert", to_string(alert.kind));
  w.kv("site", site_name);
  w.kv("enclave_id", static_cast<std::uint64_t>(alert.enclave_id));
  w.kv("type", alert.type == tracedb::CallType::kEcall ? "ecall" : "ocall");
  w.kv("call_id", static_cast<std::uint64_t>(alert.call_id));
  w.kv("onset_ns", static_cast<std::uint64_t>(alert.onset_ns));
  if (resolved) w.kv("resolved_ns", static_cast<std::uint64_t>(alert.resolved_ns));
  w.kv("window", static_cast<std::uint64_t>(alert.window_index));
  w.kv("detail", alert.detail);
  w.end_object();
  return w.take();
}

void JsonLinesSink::on_alert(const tracedb::AlertRecord& alert, bool resolved,
                             const std::string& site_name) {
  if (out_ == nullptr) return;
  const std::string line = alert_json(alert, resolved, site_name);
  std::fprintf(out_, "%s\n", line.c_str());
}

void TopSink::on_window(const tracedb::WindowRecord& window,
                        const std::vector<SessionWindowSite>& sites) {
  if (windowed_) sites_.clear();
  for (const auto& s : sites) {
    Site& site = sites_[tracedb::CallKey{s.row.enclave_id, s.row.type, s.row.call_id}];
    site.name = s.name;
    site.calls += s.row.calls;
    site.aexs += s.row.aex_count;
    site.latency.merge(s.delta);
  }
  calls_ += window.calls;
  aexs_ += window.aexs;
  paging_ += window.page_ins + window.page_outs;
  dropped_ = window.stream_dropped;
  epc_peak_ = std::max<std::uint64_t>(epc_peak_, epc_.peak_resident_pages());
  if (window.window_index == 0) first_ns_ = window.start_ns;
  last_ns_ = window.end_ns;
}

void TopSink::on_finish(std::uint64_t end_ns) {
  // The windows are aligned to the period; the span starts at the first
  // recorded timestamp instead (an enclave's creation, normally).
  std::uint64_t first = end_ns;
  for (const auto& e : trace_.enclaves()) first = std::min<std::uint64_t>(first, e.created_ns);
  for (const auto& c : trace_.calls()) first = std::min<std::uint64_t>(first, c.start_ns);
  for (const auto& a : trace_.aexs()) first = std::min<std::uint64_t>(first, a.timestamp_ns);
  for (const auto& p : trace_.paging()) first = std::min<std::uint64_t>(first, p.timestamp_ns);
  first_ns_ = first;
}

std::string TopSink::render_frame() {
  ++frame_;

  // Rates over the virtual time that elapsed since the previous frame (the
  // clock the events carry — wall-clock rates would measure the host, not
  // the enclave).
  const std::uint64_t span_ns = last_ns_ > prev_ns_ ? last_ns_ - prev_ns_ : 0;
  auto rate = [&](std::uint64_t delta) {
    return span_ns == 0 ? 0.0 : static_cast<double>(delta) * 1e9 / static_cast<double>(span_ns);
  };
  const double calls_per_s = rate(calls_ - prev_calls_);
  const double aex_per_s = rate(aexs_ - prev_aexs_);
  prev_calls_ = calls_;
  prev_aexs_ = aexs_;
  prev_ns_ = last_ns_;

  std::string out;
  out += support::format(
      "sgxperf top — frame %llu  vtime %.3fms  calls %llu  aex %llu  paging %llu  "
      "epc peak %llu pages  stream-dropped %llu\n",
      static_cast<unsigned long long>(frame_),
      last_ns_ > first_ns_ ? static_cast<double>(last_ns_ - first_ns_) / 1e6 : 0.0,
      static_cast<unsigned long long>(calls_), static_cast<unsigned long long>(aexs_),
      static_cast<unsigned long long>(paging_), static_cast<unsigned long long>(epc_peak_),
      static_cast<unsigned long long>(dropped_));
  out += support::format("  rates (virtual): %.0f calls/s  %.0f aex/s\n", calls_per_s,
                         aex_per_s);
  if (windowed_) {
    out += support::format("  window: %.3fms (tumbling, virtual time)\n",
                           static_cast<double>(window_ns_) / 1e6);
  }
  out += support::format("  %-32s %10s %10s %10s %10s %10s %8s\n", "call", "count",
                         "p50[us]", "p90[us]", "p99[us]", "p99.9[us]", "aex");

  // Busiest sites first; ties broken by key so frames are deterministic.
  std::vector<std::pair<tracedb::CallKey, const Site*>> rows;
  rows.reserve(sites_.size());
  for (const auto& [key, site] : sites_) rows.emplace_back(key, &site);
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second->calls != b.second->calls) return a.second->calls > b.second->calls;
    return a.first < b.first;
  });

  for (const auto& [key, site] : rows) {
    const auto us = [&](double q) {
      return static_cast<double>(site->latency.value_at_percentile(q)) / 1000.0;
    };
    out += support::format("  %-32s %10llu %10.1f %10.1f %10.1f %10.1f %8llu\n",
                           site->name.c_str(), static_cast<unsigned long long>(site->calls),
                           us(50), us(90), us(99), us(99.9),
                           static_cast<unsigned long long>(site->aexs));
  }
  return out;
}

MonitorSession::MonitorSession(Logger& logger, MonitorSessionConfig config)
    : logger_(logger), config_(std::move(config)), online_(config_.online) {
  sub_ = logger_.subscribe(config_.subscription_name, config_.subscription_capacity);
  batch_.reserve(4096);
  wire_analyzer();
}

MonitorSession::MonitorSession(Logger& logger, sgxsim::Urts& urts, MonitorSessionConfig config)
    : MonitorSession(logger, std::move(config)) {
  urts_ = &urts;
}

MonitorSession::~MonitorSession() {
  if (sub_ != nullptr) sub_->close();
}

void MonitorSession::wire_analyzer() {
  online_.set_externals([this] {
    WindowExternals ext;
    ext.stream_dropped = sub_ != nullptr ? sub_->dropped() : 0;
    if (urts_ != nullptr) {
      for (const auto eid : urts_->enclave_ids()) {
        const auto s = urts_->switchless_stats(eid);
        ext.switchless_calls += s.calls;
        ext.switchless_fallbacks += s.fallbacks;
        ext.switchless_wasted_ns += s.wasted_worker_ns;
      }
    }
    return ext;
  });
  online_.set_alert_sink([this](const tracedb::AlertRecord& a, bool resolved) {
    (resolved ? resolved_ : raised_) += 1;
    if (sinks_.empty()) return;
    const std::string name = name_of(a.enclave_id, a.type, a.call_id);
    const std::string& site =
        a.kind == tracedb::AlertKind::kPaging
            ? support::format("enclave %llu", static_cast<unsigned long long>(a.enclave_id))
            : name;
    for (const auto& sink : sinks_) sink->on_alert(a, resolved, site);
  });
}

void MonitorSession::install_window_sink() {
  online_.set_window_sink([this](const tracedb::WindowRecord& win,
                                 const std::vector<WindowSiteSnapshot>& sites) {
    std::vector<SessionWindowSite> rows;
    rows.reserve(sites.size());
    for (const auto& s : sites) {
      rows.push_back({s.row, name_of(s.row.enclave_id, s.row.type, s.row.call_id), s.delta});
    }
    for (const auto& sink : sinks_) sink->on_window(win, rows);
  });
}

std::string MonitorSession::name_of(tracedb::EnclaveId enclave, tracedb::CallType type,
                                    tracedb::CallId id) const {
  return logger_.database().name_of(enclave, type, id);
}

void MonitorSession::add_sink(std::shared_ptr<MonitorSink> sink) {
  if (sink == nullptr) return;
  SessionInfo info;
  info.identity = config_.identity;
  info.window_ns = config_.online.window_ns;
  sink->on_session_start(info);
  // The analyser copies window deltas only for an installed window sink, so
  // a session without sinks installs none.
  if (sinks_.empty()) install_window_sink();
  sinks_.push_back(std::move(sink));
}

std::size_t MonitorSession::poll() {
  if (sub_ == nullptr || finished_) return 0;
  std::size_t total = 0;
  for (;;) {
    batch_.clear();
    if (sub_->poll(batch_) == 0) break;
    total += batch_.size();
    polled_ += batch_.size();
    if (!batch_.empty()) {
      last_event_ns_ = std::max(last_event_ns_, batch_.back().end_ns);
    }
    online_.feed(batch_);
  }
  return total;
}

std::uint64_t MonitorSession::pump(const std::atomic<bool>& done, std::size_t interval_ms,
                                   const std::function<void()>& idle) {
  std::uint64_t total = 0;
  for (;;) {
    const std::size_t n = poll();
    total += n;
    if (n > 0) continue;  // keep draining while events are flowing
    if (done.load(std::memory_order_acquire)) break;
    if (interval_ms == 0) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    if (idle) idle();
  }
  total += poll();  // everything published before `done` flipped is in the ring
  return total;
}

void MonitorSession::finish() {
  if (finished_) return;
  poll();
  if (sub_ != nullptr) sub_->close();
  finished_ = true;

  // Seal virtual time at the last recorded event so the final window — and
  // the parity of the end-of-run verdicts with the post-mortem analyser —
  // does not depend on wall-clock scheduling.  The database view is exact
  // once the embedder has detached/flushed the logger; the stream high-water
  // mark covers the attached case.
  std::uint64_t end_ns = last_event_ns_;
  const auto& db = logger_.database();
  for (const auto& c : db.calls()) end_ns = std::max(end_ns, c.end_ns);
  for (const auto& a : db.aexs()) end_ns = std::max(end_ns, a.timestamp_ns);
  for (const auto& p : db.paging()) end_ns = std::max(end_ns, p.timestamp_ns);
  end_ns_ = end_ns;
  online_.finish(end_ns);

  const SessionStats final_stats = stats();
  for (const auto& sink : sinks_) sink->on_stats(final_stats);
  for (const auto& sink : sinks_) sink->on_finish(end_ns_);
}

void MonitorSession::persist() { online_.persist(logger_.database()); }

void MonitorSession::fill_ledger(telemetry::Ledger& led) const {
  const auto& db = logger_.database();
  const std::uint64_t db_events =
      db.calls().size() + db.aexs().size() + db.paging().size() + db.syncs().size();

  auto& record = led.stage("record");
  record.produced += logger_.events_produced();
  record.delivered += db_events;
  record.add_drop("sealed_shard", db.merge_stats().dropped);

  auto& stream = led.stage("stream");
  if (sub_ != nullptr) {
    stream.produced += sub_->published();
    stream.delivered += sub_->delivered();
    stream.add_drop("ring_overflow", sub_->dropped());
  } else {
    stream.add_drop("ring_overflow", 0);
  }

  auto& session = led.stage("session");
  session.produced += polled_;
  session.delivered += online_.events_seen();
}

telemetry::Ledger MonitorSession::ledger() const {
  telemetry::Ledger led;
  fill_ledger(led);
  return led;
}

SessionStats MonitorSession::stats() const {
  SessionStats s;
  s.events = online_.events_seen();
  s.stream_dropped = sub_ != nullptr ? sub_->dropped() : 0;
  s.sealed_dropped = logger_.database().merge_stats().dropped;
  s.pending_evicted = online_.pending_evicted();
  s.alerts_raised = raised_;
  s.alerts_resolved = resolved_;
  return s;
}

}  // namespace perf
