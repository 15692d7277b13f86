// Fleet aggregator: merges wire frames from N producers into one keyed
// time-series (the `sgxperf serve` core, transport-agnostic).
//
// Keying.  Every window-site row is tagged (host, enclave, site-name, call
// type) — the producer's self-declared identity from its hello frame plus
// the call site.  Site *names* (not numeric call ids) key the fleet series,
// so the same EDL function traced in different processes lands in one
// series even when call-id assignment differs; the numeric (enclave_id,
// call_id) of the first producer to report a site is kept for checkpoints.
//
// Merging.  Per-site window HDR *deltas* are summed bucket-wise into a
// cumulative fleet histogram per key — exact, order-independent (bucket
// addition commutes), and equal within bucket resolution to what one
// WindowedHdr observing the union of the streams would hold.  Producer
// windows are aligned on the virtual clock (same window_ns, epoch 0), so
// fleet windows are keyed by start_ns and merge counter-wise.
//
// Retention.  The fleet keeps the last `retention_windows` windows: older
// fleet window rows and per-site series points are pruned as new windows
// arrive; cumulative histograms, totals and alert state are never pruned —
// the aggregate stays exact, only the time-series view is bounded.
//
// Determinism.  All state lives in ordered maps keyed by (host, enclave,
// site); snapshots iterate those maps, so a snapshot is a pure function of
// the *set* of frames ingested, not of arrival interleaving.  This is what
// the multi-producer determinism test (byte-identical snapshot across runs
// and thread counts) pins.
//
// Threading: every public method takes the internal mutex — safe to ingest
// from a socket loop while another thread queries or checkpoints.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "fleet/wire.hpp"
#include "telemetry/hdr_histogram.hpp"
#include "telemetry/ledger.hpp"
#include "tracedb/database.hpp"

namespace fleet {

struct AggregatorConfig {
  /// Fleet windows (and per-site series points) retained, oldest pruned.
  std::size_t retention_windows = 256;
  /// Distinct fleet keys (site series + alert states) one producer may
  /// create; past the cap the producer is quarantined with an error, like a
  /// framing violation (0 = unlimited).  Host/enclave/site names are
  /// producer-controlled strings, so without a cap one misbehaving producer
  /// could grow the keyed maps without bound.
  std::size_t max_keys_per_producer = 4096;
};

/// Fleet series key: producer identity plus call site.
struct SiteKey {
  std::string host;
  std::string enclave;
  std::string site;
  tracedb::CallType type = tracedb::CallType::kEcall;

  [[nodiscard]] bool operator<(const SiteKey& o) const noexcept {
    if (host != o.host) return host < o.host;
    if (enclave != o.enclave) return enclave < o.enclave;
    if (site != o.site) return site < o.site;
    return type < o.type;
  }
  [[nodiscard]] bool operator==(const SiteKey& o) const noexcept {
    return host == o.host && enclave == o.enclave && site == o.site && type == o.type;
  }
};

/// One retained point of a site's percentile series (one producer window).
struct SitePoint {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t aex = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
};

/// Everything the fleet knows about one site key.
struct SiteSeries {
  /// Sum of all window deltas — the exact cumulative distribution.
  telemetry::HdrSnapshot cumulative;
  std::uint64_t calls = 0;
  std::uint64_t aex = 0;
  /// Numeric identity from the first producer that reported the site
  /// (checkpoint currency; names are the real key).
  tracedb::EnclaveId first_enclave_id = 0;
  tracedb::CallId first_call_id = 0;
  std::deque<SitePoint> points;  // bounded by retention_windows
};

/// One merged fleet window (keyed by virtual start_ns across producers).
struct FleetWindow {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t aexs = 0;
  std::uint64_t page_ins = 0;
  std::uint64_t page_outs = 0;
  std::uint64_t stream_dropped = 0;  // sum of producer cumulative counters
  std::uint32_t producers = 0;       // producer windows merged in
  std::uint32_t active_alerts = 0;
};

/// Raise/resolve state of one (site key, kind) pair.
struct AlertState {
  bool active = false;
  std::uint64_t onset_ns = 0;
  std::uint64_t resolved_ns = 0;
  std::uint64_t detail = 0;
  std::uint32_t window_index = 0;
  std::uint64_t raises = 0;  // lifetime raise count
  tracedb::EnclaveId enclave_id = 0;
  tracedb::CallId call_id = 0;
};

/// Per-producer bookkeeping, including the loss counters `serve` reports.
struct ProducerState {
  std::string host;
  std::string enclave;
  bool hello_seen = false;
  bool ended = false;        // stream closed (bye or disconnect)
  bool clean = false;        // bye frame seen before close
  std::string error;         // framing/geometry error, empty when healthy
  std::uint64_t end_ns = 0;  // from the bye frame
  std::uint64_t frames = 0;
  std::uint64_t windows = 0;
  std::uint64_t alerts = 0;
  std::uint64_t events = 0;          // from the stats frame
  std::uint64_t stream_dropped = 0;  // max of stats frame / window counters
  std::uint64_t sealed_dropped = 0;
  std::uint64_t pending_evicted = 0;
  std::uint64_t paging = 0;  // cumulative page_ins + page_outs

  /// Lossy = lost events, died mid-stream, or sent garbage.
  [[nodiscard]] bool lossy() const noexcept {
    return stream_dropped > 0 || sealed_dropped > 0 || !error.empty() || (ended && !clean);
  }

  /// The reasons behind lossy(), individually: "ring_overflow" (subscriber
  /// ring drops), "sealed_shard" (post-seal record drops), "quarantined"
  /// (framing/geometry violation) and "mid_stream_death" (stream ended
  /// without a bye frame).  Deterministic order; empty when healthy.
  [[nodiscard]] std::vector<std::string> drop_reasons() const {
    std::vector<std::string> out;
    if (stream_dropped > 0) out.push_back("ring_overflow");
    if (sealed_dropped > 0) out.push_back("sealed_shard");
    if (!error.empty()) out.push_back("quarantined");
    if (ended && !clean) out.push_back("mid_stream_death");
    return out;
  }
};

/// Daemon self-telemetry sampled by fleet::Server and embedded in the
/// `status` query response.  Every field is wall-clock derived and therefore
/// non-deterministic; callers that need byte-stable output (the corpus mode,
/// Aggregator::query) pass nullptr and get a status document without the
/// "daemon" block.
struct ServeSelfStats {
  std::uint64_t uptime_ms = 0;
  std::uint64_t bytes_ingested = 0;
  std::uint64_t producers_connected = 0;  // open ingest connections right now
  std::uint64_t producers_served = 0;     // lifetime accepts
  std::uint64_t queries_answered = 0;
  double ingest_frames_per_sec = 0.0;  // lifetime average over uptime
  std::uint64_t query_p50_us = 0;      // query-latency HDR percentiles
  std::uint64_t query_p99_us = 0;
  std::uint64_t query_max_us = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_last_ms = 0;
  std::uint64_t checkpoint_total_ms = 0;
};

using ProducerId = std::uint64_t;

/// The query protocol's typed error document: {"schema_version", "error"}.
[[nodiscard]] std::string error_json(const std::string& message);

class Aggregator {
 public:
  explicit Aggregator(AggregatorConfig config = {});

  /// Registers a new producer stream and returns its handle.
  ProducerId connect();
  /// Feeds raw stream bytes from one producer (any slicing).  Frames are
  /// applied as they complete; a framing error quarantines the producer.
  void ingest(ProducerId id, const char* data, std::size_t size);
  void ingest(ProducerId id, const std::string& bytes) { ingest(id, bytes.data(), bytes.size()); }
  /// End of the producer's stream.  A stream without a bye frame is kept
  /// (partial data stays merged) and flagged lossy.  The producer's parser
  /// and any partial frame it held are freed, as on a quarantine; its
  /// ledger and snapshot rows stay.
  void disconnect(ProducerId id);
  /// Stream bytes held across all producers that are not yet a whole frame.
  [[nodiscard]] std::size_t buffered_bytes() const;

  // --- queries (each locks; JSON output is deterministic) -------------------

  struct TopRow {
    SiteKey key;
    std::uint64_t value = 0;  // metric the ranking used
    std::uint64_t calls = 0;
    std::uint64_t p99_ns = 0;
  };

  /// Top-`n` sites by "p99" | "transitions" | "paging" ("paging" ranks
  /// (host, enclave) producers; the key's site field is empty).
  [[nodiscard]] std::vector<TopRow> top(const std::string& by, std::size_t n) const;

  /// Full fleet snapshot (producers, retained windows, per-site cumulative
  /// percentiles, alert state, totals) as one deterministic JSON object.
  [[nodiscard]] std::string snapshot_json() const;
  [[nodiscard]] std::string top_json(const std::string& by, std::size_t n) const;
  /// Active alerts (and lifetime raise/resolve totals).
  [[nodiscard]] std::string alerts_json() const;
  /// Retained percentile series of one site key (all call types).
  [[nodiscard]] std::string series_json(const std::string& host, const std::string& enclave,
                                        const std::string& site) const;

  /// Answers one query-protocol line ("snapshot", "top <by> <n>", "alerts",
  /// "series <host> <enclave> <site>", "status"); unknown queries get a
  /// JSON error.  ("status" here carries no daemon block — fleet::Server
  /// intercepts the query to supply its ServeSelfStats.)
  [[nodiscard]] std::string query(const std::string& line) const;

  /// Health + conservation view: producer summary (with per-reason loss
  /// counts), per-producer ingest lag against the fleet's window high-water
  /// mark, the fleet ledger, and — when `self` is non-null — the daemon's
  /// self-telemetry.  Deterministic whenever `self` is null.
  [[nodiscard]] std::string status_json(const ServeSelfStats* self = nullptr) const;

  /// Appends the "fleet_ingest" stage (unit: frames; drop reason
  /// "quarantined"; producers dead mid-stream or quarantined count as
  /// indeterminate — their event loss has no knowable size, which is
  /// precisely what must fail a conservation audit).
  void fill_ledger(telemetry::Ledger& led) const;

  /// Cumulative p99 of one site key (tests compare against single-process
  /// WindowedHdr values).  nullopt if the key is unknown.
  [[nodiscard]] std::optional<std::uint64_t> site_p99(const SiteKey& key) const;

  /// Fleet windows merged so far (monotonic; drives checkpoint cadence).
  [[nodiscard]] std::uint64_t windows_merged() const;

  /// Persists the fleet series as a v5-compatible trace: one synthetic
  /// enclave per (host, enclave) producer identity, the retained fleet
  /// windows, per-site window rows, the alert history and the cumulative
  /// per-site HDR latency table — so `sgxperf stats`/`export` work on the
  /// aggregate.
  void checkpoint(tracedb::TraceDatabase& db) const;

 private:
  struct Producer {
    ProducerState state;
    FrameParser parser;
    std::uint64_t last_window_end = 0;
    std::uint64_t keys_created = 0;  // distinct fleet keys this producer added
  };

  void apply(Producer& p, const Frame& frame);
  void apply_window(Producer& p, const WindowFrame& f);
  void apply_alert(Producer& p, const AlertFrame& f);
  void prune();

  [[nodiscard]] std::vector<TopRow> top_locked(const std::string& by, std::size_t n) const;
  [[nodiscard]] std::string snapshot_json_locked() const;
  void fill_ledger_locked(telemetry::Ledger& led) const;

  AggregatorConfig config_;
  mutable std::mutex mu_;

  std::map<ProducerId, Producer> producers_;
  ProducerId next_producer_ = 1;
  std::uint64_t window_ns_ = 0;  // from the first hello

  std::map<std::uint64_t, FleetWindow> fleet_windows_;  // by start_ns
  std::map<SiteKey, SiteSeries> sites_;
  /// apply_window's per-row series lookups (cleared per frame, never shrunk).
  std::vector<std::map<SiteKey, SiteSeries>::iterator> row_series_;
  std::map<std::pair<SiteKey, tracedb::AlertKind>, AlertState> alerts_;

  std::uint64_t frames_seen_ = 0;      // frames parsed across all producers
  std::uint64_t frames_rejected_ = 0;  // parsed but rejected (quarantine)
  std::uint64_t windows_merged_ = 0;
  std::uint64_t alerts_raised_ = 0;
  std::uint64_t alerts_resolved_ = 0;
  std::uint64_t total_calls_ = 0;
  std::uint64_t total_aexs_ = 0;
  std::uint64_t total_page_ins_ = 0;
  std::uint64_t total_page_outs_ = 0;
};

}  // namespace fleet
