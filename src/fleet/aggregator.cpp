#include "fleet/aggregator.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "perf/online.hpp"
#include "support/json.hpp"
#include "support/strutil.hpp"

namespace fleet {
namespace {

const char* type_name(tracedb::CallType t) {
  return t == tracedb::CallType::kEcall ? "ecall" : "ocall";
}

/// Splits a query line into whitespace-separated tokens.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

}  // namespace

std::string error_json(const std::string& message) {
  support::json::Writer w;
  w.begin_object();
  w.kv("schema_version", support::json::kSchemaVersion);
  w.kv("error", message);
  w.end_object();
  return w.take();
}

Aggregator::Aggregator(AggregatorConfig config) : config_(config) {
  if (config_.retention_windows == 0) config_.retention_windows = 1;
}

ProducerId Aggregator::connect() {
  std::lock_guard<std::mutex> lock(mu_);
  const ProducerId id = next_producer_++;
  producers_[id];  // default-constructed Producer
  return id;
}

void Aggregator::ingest(ProducerId id, const char* data, std::size_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = producers_.find(id);
  if (it == producers_.end()) return;
  Producer& p = it->second;
  if (p.state.ended || !p.state.error.empty()) return;  // quarantined
  p.parser.push(data, size);
  while (auto frame = p.parser.next()) {
    p.state.frames += 1;
    frames_seen_ += 1;
    apply(p, *frame);
    if (!p.state.error.empty()) {
      frames_rejected_ += 1;  // the frame that tripped the quarantine
      break;
    }
  }
  if (p.parser.error()) p.state.error = p.parser.error_message();
  // Later bytes of a quarantined producer are dropped unparsed, so nothing
  // it buffered can become a frame.
  if (!p.state.error.empty()) p.parser = FrameParser{};
}

void Aggregator::disconnect(ProducerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = producers_.find(id);
  if (it == producers_.end()) return;
  it->second.state.ended = true;
  it->second.parser = FrameParser{};
}

std::size_t Aggregator::buffered_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [id, p] : producers_) n += p.parser.buffered_bytes();
  return n;
}

void Aggregator::apply(Producer& p, const Frame& frame) {
  if (const auto* hello = std::get_if<HelloFrame>(&frame)) {
    if (hello->version != kWireVersion) {
      p.state.error = support::format("unsupported wire version %u", hello->version);
      return;
    }
    if (hello->hdr_sub_bits != telemetry::hdr::kSubBits ||
        hello->hdr_max_exponent != telemetry::hdr::kMaxExponent) {
      // Bucket indices are only portable between identical geometries;
      // merging anything else would silently corrupt the fleet series.
      p.state.error = support::format("HDR geometry mismatch (%u/%u, fleet has %u/%u)",
                                      hello->hdr_sub_bits, hello->hdr_max_exponent,
                                      telemetry::hdr::kSubBits, telemetry::hdr::kMaxExponent);
      return;
    }
    if (window_ns_ == 0) window_ns_ = hello->window_ns;
    if (hello->window_ns != window_ns_) {
      p.state.error = support::format(
          "window period mismatch (%llu ns, fleet uses %llu ns)",
          static_cast<unsigned long long>(hello->window_ns),
          static_cast<unsigned long long>(window_ns_));
      return;
    }
    p.state.host = hello->host;
    p.state.enclave = hello->enclave;
    p.state.hello_seen = true;
    return;
  }
  if (!p.state.hello_seen) {
    p.state.error = "frame before hello";
    return;
  }
  if (const auto* window = std::get_if<WindowFrame>(&frame)) {
    apply_window(p, *window);
  } else if (const auto* alert = std::get_if<AlertFrame>(&frame)) {
    apply_alert(p, *alert);
  } else if (const auto* stats = std::get_if<StatsFrame>(&frame)) {
    p.state.events = stats->events;
    p.state.stream_dropped = std::max(p.state.stream_dropped, stats->stream_dropped);
    p.state.sealed_dropped = stats->sealed_dropped;
    p.state.pending_evicted = stats->pending_evicted;
  } else if (const auto* bye = std::get_if<ByeFrame>(&frame)) {
    p.state.clean = true;
    p.state.end_ns = bye->end_ns;
  }
}

void Aggregator::apply_window(Producer& p, const WindowFrame& f) {
  const auto& w = f.window;
  // One lookup per row: the rows' series (end() where the key is new) are
  // kept for the merge below, and one key is reused across the frame.
  SiteKey key{p.state.host, p.state.enclave, {}, tracedb::CallType::kEcall};
  row_series_.clear();
  std::uint64_t new_keys = 0;
  for (const auto& s : f.sites) {
    key.site = s.name;
    key.type = s.row.type;
    const auto it = sites_.find(key);
    if (it == sites_.end()) new_keys += 1;
    row_series_.push_back(it);
  }
  // Charge every key this frame would create against the producer's cap
  // up front, so a frame that would blow the cap is rejected whole.
  if (config_.max_keys_per_producer != 0) {
    if (p.keys_created + new_keys > config_.max_keys_per_producer) {
      p.state.error = support::format("fleet key cap exceeded (%zu distinct keys)",
                                      config_.max_keys_per_producer);
      return;
    }
    p.keys_created += new_keys;
  }
  p.state.windows += 1;
  p.state.stream_dropped = std::max(p.state.stream_dropped, w.stream_dropped);
  p.state.paging += w.page_ins + w.page_outs;
  p.last_window_end = std::max(p.last_window_end, static_cast<std::uint64_t>(w.end_ns));
  windows_merged_ += 1;

  FleetWindow& fw = fleet_windows_[w.start_ns];
  fw.start_ns = w.start_ns;
  fw.end_ns = std::max(fw.end_ns, static_cast<std::uint64_t>(w.end_ns));
  fw.calls += w.calls;
  fw.aexs += w.aexs;
  fw.page_ins += w.page_ins;
  fw.page_outs += w.page_outs;
  fw.stream_dropped += w.stream_dropped;
  fw.producers += 1;
  fw.active_alerts += w.active_alerts;

  total_calls_ += w.calls;
  total_aexs_ += w.aexs;
  total_page_ins_ += w.page_ins;
  total_page_outs_ += w.page_outs;

  for (std::size_t i = 0; i < f.sites.size(); ++i) {
    const auto& s = f.sites[i];
    auto it = row_series_[i];
    if (it == sites_.end()) {
      // try_emplace: an earlier row of this frame may have added the key.
      key.site = s.name;
      key.type = s.row.type;
      it = sites_.try_emplace(key).first;
    }
    SiteSeries& series = it->second;
    if (series.calls == 0) {
      series.first_enclave_id = s.row.enclave_id;
      series.first_call_id = s.row.call_id;
    }
    // Bucket-wise delta add; the sum is then pinned to the exactly-recorded
    // one (add_bucket approximates from bucket upper bounds).
    const std::uint64_t prev_sum = series.cumulative.sum();
    for (const auto& [bucket, count] : s.buckets) series.cumulative.add_bucket(bucket, count);
    series.cumulative.set_exact_sum(prev_sum + s.delta_sum);
    series.calls += s.row.calls;
    series.aex += s.row.aex_count;
    SitePoint point;
    point.start_ns = w.start_ns;
    point.end_ns = w.end_ns;
    point.calls = s.row.calls;
    point.aex = s.row.aex_count;
    point.p50_ns = s.row.p50_ns;
    point.p99_ns = s.row.p99_ns;
    series.points.push_back(point);
  }
  prune();
}

void Aggregator::apply_alert(Producer& p, const AlertFrame& f) {
  const SiteKey key{p.state.host, p.state.enclave, f.site_name, f.alert.type};
  const auto alert_key = std::make_pair(key, f.alert.kind);
  const auto known = alerts_.find(alert_key);
  // The frame's own row was checked on decode; a resolve can still predate
  // the raise before it, which the checkpoint's alert row would not load.
  if (f.resolved && known != alerts_.end() && f.alert.resolved_ns != 0 &&
      f.alert.resolved_ns < known->second.onset_ns) {
    p.state.error = "alert resolved before its raise";
    return;
  }
  if (config_.max_keys_per_producer != 0 && known == alerts_.end()) {
    if (p.keys_created >= config_.max_keys_per_producer) {
      p.state.error = support::format("fleet key cap exceeded (%zu distinct keys)",
                                      config_.max_keys_per_producer);
      return;
    }
    p.keys_created += 1;
  }
  p.state.alerts += 1;
  AlertState& st = alerts_[alert_key];
  st.enclave_id = f.alert.enclave_id;
  st.call_id = f.alert.call_id;
  st.detail = f.alert.detail;
  st.window_index = f.alert.window_index;
  if (f.resolved) {
    st.active = false;
    st.resolved_ns = f.alert.resolved_ns;
    alerts_resolved_ += 1;
  } else {
    st.active = true;
    st.onset_ns = f.alert.onset_ns;
    st.resolved_ns = 0;
    st.raises += 1;
    alerts_raised_ += 1;
  }
}

void Aggregator::prune() {
  // Without an eviction the oldest retained start cannot rise, so no point
  // can have fallen below it: the site walk runs only after an erase.
  if (fleet_windows_.size() <= config_.retention_windows) return;
  while (fleet_windows_.size() > config_.retention_windows) {
    fleet_windows_.erase(fleet_windows_.begin());
  }
  const std::uint64_t min_start = fleet_windows_.begin()->first;
  for (auto& [key, series] : sites_) {
    while (!series.points.empty() && series.points.front().start_ns < min_start) {
      series.points.pop_front();
    }
  }
}

std::vector<Aggregator::TopRow> Aggregator::top(const std::string& by, std::size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  return top_locked(by, n);
}

std::vector<Aggregator::TopRow> Aggregator::top_locked(const std::string& by,
                                                       std::size_t n) const {
  std::vector<TopRow> rows;
  if (by == "paging") {
    // Producer-level metric: rank (host, enclave) identities.
    std::map<std::pair<std::string, std::string>, std::uint64_t> per_producer;
    for (const auto& [id, p] : producers_) {
      if (!p.state.hello_seen) continue;
      per_producer[{p.state.host, p.state.enclave}] += p.state.paging;
    }
    for (const auto& [identity, paging] : per_producer) {
      TopRow row;
      row.key.host = identity.first;
      row.key.enclave = identity.second;
      row.value = paging;
      rows.push_back(std::move(row));
    }
    std::stable_sort(rows.begin(), rows.end(), [](const TopRow& a, const TopRow& b) {
      if (a.value != b.value) return a.value > b.value;
      return a.key < b.key;
    });
    if (rows.size() > n) rows.resize(n);
    return rows;
  }
  // Rank the sites in place: only the n returned rows copy their key, and
  // ranking by transitions needs the p99 of those rows alone.  sites_
  // iterates in key order, so the ordinal breaks value ties by key.
  const bool by_p99 = by != "transitions";
  struct Ranked {
    std::uint64_t value;
    std::size_t ordinal;
    const std::pair<const SiteKey, SiteSeries>* site;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(sites_.size());
  for (const auto& entry : sites_) {
    const SiteSeries& series = entry.second;
    ranked.push_back({by_p99 ? series.cumulative.value_at_percentile(99.0) : series.calls,
                      ranked.size(), &entry});
  }
  const std::size_t keep = std::min(n, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(keep),
                    ranked.end(), [](const Ranked& a, const Ranked& b) {
                      if (a.value != b.value) return a.value > b.value;
                      return a.ordinal < b.ordinal;
                    });
  rows.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    const auto& [key, series] = *ranked[i].site;
    TopRow row;
    row.key = key;
    row.value = ranked[i].value;
    row.calls = series.calls;
    row.p99_ns = by_p99 ? ranked[i].value : series.cumulative.value_at_percentile(99.0);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string Aggregator::snapshot_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_json_locked();
}

std::string Aggregator::snapshot_json_locked() const {
  support::json::Writer w;
  w.begin_object();
  w.kv("schema_version", support::json::kSchemaVersion);
  w.kv("window_ns", window_ns_);

  // Producers sorted by identity, tie-broken by row content: connect order
  // varies across runs, and two producers may legitimately share a
  // (host, enclave) identity — a content tiebreaker keeps the snapshot a
  // pure function of the ingested frame set either way.
  std::vector<const ProducerState*> producers;
  for (const auto& [id, p] : producers_) producers.push_back(&p.state);
  std::stable_sort(producers.begin(), producers.end(),
                   [](const ProducerState* a, const ProducerState* b) {
                     const auto key = [](const ProducerState* p) {
                       return std::tie(p->host, p->enclave, p->frames, p->windows,
                                       p->alerts, p->events, p->stream_dropped,
                                       p->sealed_dropped, p->pending_evicted,
                                       p->paging, p->end_ns, p->ended, p->clean,
                                       p->error);
                     };
                     return key(a) < key(b);
                   });
  w.key("producers");
  w.begin_array();
  for (const auto* p : producers) {
    w.begin_object();
    w.kv("host", p->host);
    w.kv("enclave", p->enclave);
    w.kv("ended", p->ended);
    w.kv("clean", p->clean);
    w.kv("lossy", p->lossy());
    w.key("drop_reasons");
    w.begin_array();
    for (const auto& reason : p->drop_reasons()) w.value(reason);
    w.end_array();
    if (!p->error.empty()) w.kv("error", p->error);
    w.kv("frames", p->frames);
    w.kv("windows", p->windows);
    w.kv("alerts", p->alerts);
    w.kv("events", p->events);
    w.kv("stream_dropped", p->stream_dropped);
    w.kv("sealed_dropped", p->sealed_dropped);
    w.kv("pending_evicted", p->pending_evicted);
    w.kv("paging", p->paging);
    w.kv("end_ns", p->end_ns);
    w.end_object();
  }
  w.end_array();

  w.key("fleet_windows");
  w.begin_array();
  for (const auto& [start, fw] : fleet_windows_) {
    w.begin_object();
    w.kv("start_ns", fw.start_ns);
    w.kv("end_ns", fw.end_ns);
    w.kv("calls", fw.calls);
    w.kv("aexs", fw.aexs);
    w.kv("page_ins", fw.page_ins);
    w.kv("page_outs", fw.page_outs);
    w.kv("producers", static_cast<std::uint64_t>(fw.producers));
    w.kv("active_alerts", static_cast<std::uint64_t>(fw.active_alerts));
    w.kv("stream_dropped", fw.stream_dropped);
    w.end_object();
  }
  w.end_array();

  w.key("sites");
  w.begin_array();
  for (const auto& [key, series] : sites_) {
    w.begin_object();
    w.kv("host", key.host);
    w.kv("enclave", key.enclave);
    w.kv("site", key.site);
    w.kv("type", type_name(key.type));
    w.kv("calls", series.calls);
    w.kv("aex", series.aex);
    w.kv("sum_ns", series.cumulative.sum());
    static constexpr double kQuantiles[] = {50.0, 90.0, 99.0, 99.9};
    std::uint64_t q[std::size(kQuantiles)];
    series.cumulative.values_at_percentiles(kQuantiles, q);
    w.kv("p50_ns", q[0]);
    w.kv("p90_ns", q[1]);
    w.kv("p99_ns", q[2]);
    w.kv("p999_ns", q[3]);
    w.kv("max_ns", series.cumulative.max_value());
    w.kv("points", static_cast<std::uint64_t>(series.points.size()));
    w.end_object();
  }
  w.end_array();

  w.key("alerts");
  w.begin_object();
  w.kv("raised", alerts_raised_);
  w.kv("resolved", alerts_resolved_);
  w.key("active");
  w.begin_array();
  for (const auto& [key, st] : alerts_) {
    if (!st.active) continue;
    w.begin_object();
    w.kv("host", key.first.host);
    w.kv("enclave", key.first.enclave);
    w.kv("site", key.first.site);
    w.kv("kind", perf::to_string(key.second));
    w.kv("onset_ns", st.onset_ns);
    w.kv("detail", st.detail);
    w.kv("raises", st.raises);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("totals");
  w.begin_object();
  w.kv("calls", total_calls_);
  w.kv("aexs", total_aexs_);
  w.kv("page_ins", total_page_ins_);
  w.kv("page_outs", total_page_outs_);
  w.kv("windows_merged", windows_merged_);
  w.end_object();

  w.end_object();
  return w.take();
}

std::string Aggregator::top_json(const std::string& by, std::size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (by != "p99" && by != "transitions" && by != "paging") {
    return error_json(support::format("unknown ranking '%s' (p99|transitions|paging)",
                                      by.c_str()));
  }
  const auto rows = top_locked(by, n);
  support::json::Writer w;
  w.begin_object();
  w.kv("schema_version", support::json::kSchemaVersion);
  w.kv("by", by);
  w.key("rows");
  w.begin_array();
  for (const auto& row : rows) {
    w.begin_object();
    w.kv("host", row.key.host);
    w.kv("enclave", row.key.enclave);
    if (!row.key.site.empty()) {
      w.kv("site", row.key.site);
      w.kv("type", type_name(row.key.type));
    }
    w.kv("value", row.value);
    if (by != "paging") {
      w.kv("calls", row.calls);
      w.kv("p99_ns", row.p99_ns);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string Aggregator::alerts_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  support::json::Writer w;
  w.begin_object();
  w.kv("schema_version", support::json::kSchemaVersion);
  w.kv("raised", alerts_raised_);
  w.kv("resolved", alerts_resolved_);
  w.key("alerts");
  w.begin_array();
  for (const auto& [key, st] : alerts_) {
    w.begin_object();
    w.kv("host", key.first.host);
    w.kv("enclave", key.first.enclave);
    w.kv("site", key.first.site);
    w.kv("type", type_name(key.first.type));
    w.kv("kind", perf::to_string(key.second));
    w.kv("active", st.active);
    w.kv("onset_ns", st.onset_ns);
    if (!st.active) w.kv("resolved_ns", st.resolved_ns);
    w.kv("detail", st.detail);
    w.kv("raises", st.raises);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string Aggregator::series_json(const std::string& host, const std::string& enclave,
                                    const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  support::json::Writer w;
  w.begin_object();
  w.kv("schema_version", support::json::kSchemaVersion);
  w.kv("host", host);
  w.kv("enclave", enclave);
  w.kv("site", site);
  w.key("series");
  w.begin_array();
  for (const auto& [key, series] : sites_) {
    if (key.host != host || key.enclave != enclave || key.site != site) continue;
    w.begin_object();
    w.kv("type", type_name(key.type));
    w.kv("calls", series.calls);
    w.kv("p99_ns", series.cumulative.value_at_percentile(99.0));
    w.key("points");
    w.begin_array();
    for (const auto& point : series.points) {
      w.begin_object();
      w.kv("start_ns", point.start_ns);
      w.kv("end_ns", point.end_ns);
      w.kv("calls", point.calls);
      w.kv("aex", point.aex);
      w.kv("p50_ns", point.p50_ns);
      w.kv("p99_ns", point.p99_ns);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

void Aggregator::fill_ledger_locked(telemetry::Ledger& led) const {
  auto& ingest = led.stage("fleet_ingest", "frames");
  ingest.produced += frames_seen_;
  ingest.delivered += frames_seen_ - frames_rejected_;
  ingest.add_drop("quarantined", frames_rejected_);
  for (const auto& [id, p] : producers_) {
    // Quarantined streams have unparsed bytes behind the poisoned frame;
    // mid-stream deaths lost an unknowable tail.  Neither loss has a size,
    // so both are indeterminate — a conservation failure by definition.
    if (!p.state.error.empty() || (p.state.ended && !p.state.clean)) {
      ingest.indeterminate += 1;
    }
  }
}

void Aggregator::fill_ledger(telemetry::Ledger& led) const {
  std::lock_guard<std::mutex> lock(mu_);
  fill_ledger_locked(led);
}

std::string Aggregator::status_json(const ServeSelfStats* self) const {
  std::lock_guard<std::mutex> lock(mu_);
  support::json::Writer w;
  w.begin_object();
  w.kv("schema_version", support::json::kSchemaVersion);
  w.kv("window_ns", window_ns_);

  std::uint64_t ended = 0;
  std::uint64_t clean = 0;
  std::uint64_t lossy = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t deaths = 0;
  std::uint64_t fleet_high_water = 0;
  for (const auto& [id, p] : producers_) {
    ended += p.state.ended ? 1 : 0;
    clean += p.state.clean ? 1 : 0;
    lossy += p.state.lossy() ? 1 : 0;
    quarantined += p.state.error.empty() ? 0 : 1;
    deaths += (p.state.ended && !p.state.clean) ? 1 : 0;
    fleet_high_water = std::max(fleet_high_water, p.last_window_end);
  }
  w.key("producers");
  w.begin_object();
  w.kv("total", static_cast<std::uint64_t>(producers_.size()));
  w.kv("streaming", static_cast<std::uint64_t>(producers_.size()) - ended);
  w.kv("ended", ended);
  w.kv("clean", clean);
  w.kv("lossy", lossy);
  w.kv("quarantined", quarantined);
  w.kv("mid_stream_death", deaths);
  w.end_object();

  // Ingest lag: how far each producer's last merged window trails the
  // fleet's virtual-time high-water mark (in windows when the period is
  // known).  Sorted by identity + content like the snapshot, so the block
  // is a pure function of the ingested frame set.
  struct LagRow {
    const ProducerState* state;
    std::uint64_t last_end;
  };
  std::vector<LagRow> lag_rows;
  for (const auto& [id, p] : producers_) lag_rows.push_back({&p.state, p.last_window_end});
  std::stable_sort(lag_rows.begin(), lag_rows.end(), [](const LagRow& a, const LagRow& b) {
    const auto key = [](const LagRow& r) {
      return std::tie(r.state->host, r.state->enclave, r.last_end, r.state->frames,
                      r.state->windows, r.state->events, r.state->end_ns);
    };
    return key(a) < key(b);
  });
  w.key("lag");
  w.begin_array();
  for (const auto& row : lag_rows) {
    const std::uint64_t lag_ns = fleet_high_water - row.last_end;
    w.begin_object();
    w.kv("host", row.state->host);
    w.kv("enclave", row.state->enclave);
    w.kv("last_window_end_ns", row.last_end);
    w.kv("lag_ns", lag_ns);
    w.kv("backlog_windows", window_ns_ > 0 ? lag_ns / window_ns_ : 0);
    w.kv("windows", row.state->windows);
    w.end_object();
  }
  w.end_array();

  telemetry::Ledger led;
  fill_ledger_locked(led);
  w.key("ledger");
  led.write_json(w);
  w.kv("conservation_ok", led.audit().ok);

  if (self != nullptr) {
    w.key("daemon");
    w.begin_object();
    w.kv("uptime_ms", self->uptime_ms);
    w.kv("bytes_ingested", self->bytes_ingested);
    w.kv("producers_connected", self->producers_connected);
    w.kv("producers_served", self->producers_served);
    w.kv("ingest_frames_per_sec", self->ingest_frames_per_sec);
    w.kv("queries_answered", self->queries_answered);
    w.kv("query_p50_us", self->query_p50_us);
    w.kv("query_p99_us", self->query_p99_us);
    w.kv("query_max_us", self->query_max_us);
    w.kv("checkpoints", self->checkpoints);
    w.kv("checkpoint_last_ms", self->checkpoint_last_ms);
    w.kv("checkpoint_total_ms", self->checkpoint_total_ms);
    w.end_object();
  }
  w.end_object();
  return w.take();
}

std::string Aggregator::query(const std::string& line) const {
  const auto tokens = tokenize(line);
  if (tokens.empty()) return error_json("empty query");
  if (tokens[0] == "snapshot") return snapshot_json();
  if (tokens[0] == "alerts") return alerts_json();
  if (tokens[0] == "status") return status_json();
  if (tokens[0] == "top") {
    const std::string by = tokens.size() > 1 ? tokens[1] : "p99";
    std::size_t n = 10;
    if (tokens.size() > 2) {
      const long long parsed = std::atoll(tokens[2].c_str());
      if (parsed > 0) n = static_cast<std::size_t>(parsed);
    }
    return top_json(by, n);
  }
  if (tokens[0] == "series") {
    if (tokens.size() < 4) return error_json("usage: series <host> <enclave> <site>");
    return series_json(tokens[1], tokens[2], tokens[3]);
  }
  return error_json(support::format("unknown query '%s'", tokens[0].c_str()));
}

std::optional<std::uint64_t> Aggregator::site_p99(const SiteKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sites_.find(key);
  if (it == sites_.end()) return std::nullopt;
  return it->second.cumulative.value_at_percentile(99.0);
}

std::uint64_t Aggregator::windows_merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  return windows_merged_;
}

void Aggregator::checkpoint(tracedb::TraceDatabase& db) const {
  std::lock_guard<std::mutex> lock(mu_);
  db.set_window_period(window_ns_);

  // One synthetic enclave per (host, enclave) identity, ids assigned in
  // sorted identity order so checkpoints of the same fleet state are
  // byte-identical.
  std::map<std::pair<std::string, std::string>, tracedb::EnclaveId> enclave_ids;
  for (const auto& [key, series] : sites_) enclave_ids[{key.host, key.enclave}];
  for (const auto& [id, p] : producers_) {
    if (p.state.hello_seen) enclave_ids[{p.state.host, p.state.enclave}];
  }
  tracedb::EnclaveId next_eid = 1;
  for (auto& [identity, eid] : enclave_ids) {
    eid = next_eid++;
    tracedb::EnclaveRecord rec;
    rec.enclave_id = eid;
    rec.name = identity.first + "/" + identity.second;
    db.add_enclave(rec);
  }

  // Synthetic call ids per (identity, type), in sorted site order; call-id
  // collisions across producers are impossible because each identity gets
  // its own synthetic enclave.
  std::map<SiteKey, std::pair<tracedb::EnclaveId, tracedb::CallId>> site_ids;
  std::map<std::pair<tracedb::EnclaveId, tracedb::CallType>, tracedb::CallId> next_call_id;
  for (const auto& [key, series] : sites_) {
    const tracedb::EnclaveId eid = enclave_ids.at({key.host, key.enclave});
    const tracedb::CallId cid = next_call_id[{eid, key.type}]++;
    site_ids[key] = {eid, cid};
    tracedb::CallNameRecord name;
    name.enclave_id = eid;
    name.type = key.type;
    name.call_id = cid;
    name.name = key.site;
    db.add_call_name(name);

    db.set_latency(tracedb::latency_record(eid, key.type, cid, series.cumulative));
  }

  // Retained fleet windows, re-indexed 0..N-1 in time order.
  std::map<std::uint64_t, std::uint32_t> window_index;
  std::uint32_t idx = 0;
  for (const auto& [start, fw] : fleet_windows_) {
    window_index[start] = idx;
    tracedb::WindowRecord rec;
    rec.window_index = idx++;
    rec.start_ns = fw.start_ns;
    rec.end_ns = fw.end_ns;
    rec.calls = fw.calls;
    rec.aexs = fw.aexs;
    rec.page_ins = fw.page_ins;
    rec.page_outs = fw.page_outs;
    rec.stream_dropped = fw.stream_dropped;
    rec.active_alerts = fw.active_alerts;
    db.add_window(rec);
  }

  std::vector<tracedb::WindowSiteRecord> site_rows;
  for (const auto& [key, series] : sites_) {
    const auto [eid, cid] = site_ids.at(key);
    for (const auto& point : series.points) {
      const auto wit = window_index.find(point.start_ns);
      if (wit == window_index.end()) continue;
      tracedb::WindowSiteRecord rec;
      rec.window_index = wit->second;
      rec.enclave_id = eid;
      rec.type = key.type;
      rec.call_id = cid;
      rec.calls = point.calls;
      rec.aex_count = point.aex;
      rec.p50_ns = point.p50_ns;
      rec.p99_ns = point.p99_ns;
      site_rows.push_back(rec);
    }
  }
  std::stable_sort(site_rows.begin(), site_rows.end(),
                   [](const tracedb::WindowSiteRecord& a, const tracedb::WindowSiteRecord& b) {
                     if (a.window_index != b.window_index) return a.window_index < b.window_index;
                     if (a.enclave_id != b.enclave_id) return a.enclave_id < b.enclave_id;
                     if (a.type != b.type) return a.type < b.type;
                     return a.call_id < b.call_id;
                   });
  for (const auto& rec : site_rows) db.add_window_site(rec);

  for (const auto& [key, st] : alerts_) {
    tracedb::AlertRecord rec;
    rec.kind = key.second;
    const auto sit = site_ids.find(key.first);
    if (sit != site_ids.end()) {
      rec.enclave_id = sit->second.first;
      rec.call_id = sit->second.second;
    } else {
      // Paging alerts key a producer, not a call site.
      const auto eit = enclave_ids.find({key.first.host, key.first.enclave});
      rec.enclave_id = eit != enclave_ids.end() ? eit->second : 0;
      rec.call_id = st.call_id;
    }
    rec.type = key.first.type;
    rec.onset_ns = st.onset_ns;
    rec.resolved_ns = st.active ? 0 : st.resolved_ns;
    rec.detail = st.detail;
    const auto wit = window_index.upper_bound(st.onset_ns);
    rec.window_index = wit == window_index.begin() ? 0 : std::prev(wit)->second;
    db.add_alert(rec);
  }
}

}  // namespace fleet
