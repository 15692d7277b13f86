// The trace database: thread-safe append, typed tables, save/load, CSV.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "tracedb/schema.hpp"
#include "tracedb/shard.hpp"

namespace tracedb {

namespace store {
struct RawTables;  // the SGXSTORE subsystem's raw table access (store/format.hpp)
}

/// Append-oriented store for one profiling session.
///
/// Two writer paths exist:
///
///  * the *direct* API (add_call & friends) appends under an internal mutex —
///    fine for low-frequency events (enclave lifecycle, call names) and for
///    building databases by hand;
///  * the *sharded* API: each worker thread records into its own EventShard
///    (register_shard(), no locking on the hot path) and merge_shards()
///    stitches the shards into the globally time-ordered record arrays once
///    the workload has quiesced — the path the event logger uses so that
///    multi-threaded workloads measure enclave behaviour, not lock
///    contention.
///
/// Readers (the analyser) run after the workload has quiesced and the shards
/// have been merged, as the real tool does when the SQLite file is analysed
/// post-mortem.  Do not interleave direct call appends with sharded ones if
/// global time-ordering matters: merge sorts only the shard-sourced records.
class TraceDatabase {
 public:
  TraceDatabase() = default;

  TraceDatabase(const TraceDatabase&) = delete;
  TraceDatabase& operator=(const TraceDatabase&) = delete;

  /// Move is supported so load() can return by value.  Locks *both* sides'
  /// mutexes; neither database may have concurrent writers (registered
  /// shards move along and stay valid, but their writer threads must have
  /// quiesced).
  TraceDatabase(TraceDatabase&& other) noexcept;

  // --- direct writer API ---------------------------------------------------

  /// Appends a call record and returns its index (used as a parent handle).
  CallIndex add_call(const CallRecord& rec);
  /// Patches the end timestamp / AEX count of a call once it returns.
  void finish_call(CallIndex idx, Nanoseconds end_ns, std::uint32_t aex_count);
  /// Reclassifies an ocall (sleep/wake kinds are known only by id lookup).
  void set_call_kind(CallIndex idx, OcallKind kind);

  void add_aex(const AexRecord& rec);
  void add_paging(const PagingRecord& rec);
  void add_sync(const SyncRecord& rec);
  void add_enclave(const EnclaveRecord& rec);
  void set_enclave_destroyed(EnclaveId id, Nanoseconds when);
  void add_call_name(const CallNameRecord& rec);

  // --- telemetry tables (format v3) ----------------------------------------

  /// Registers (idempotently, by name) a metric timeseries and returns its
  /// id.  Samples are appended under the internal mutex — the sampler runs
  /// at a coarse cadence, so this is not a hot path.
  MetricSeriesId add_metric_series(MetricKind kind, const std::string& name,
                                   const std::string& unit);
  void add_metric_sample(const MetricSampleRecord& rec);

  // --- latency table (format v4) --------------------------------------------

  /// Upserts the HDR latency histogram for `rec`'s (enclave, type, call_id)
  /// key: a replace (rather than append) keeps the table one-row-per-site.
  void set_latency(const LatencyRecord& rec);
  /// Adds the durations of calls()[first_call..] to their sites' latency
  /// rows (count, buckets and exact sum); a site without a row gets one,
  /// appended in (enclave, type, call_id) order.  The logger folds each
  /// merge's calls at detach() and flush(), so the table is a function of
  /// the call table.
  void fold_call_latencies(std::size_t first_call);
  /// Row for one call site, or nullptr if none was recorded.  The pointer
  /// is invalidated by the next writer call.
  [[nodiscard]] const LatencyRecord* find_latency(EnclaveId enclave, CallType type,
                                                  CallId call_id) const;

  /// Events dropped by live streaming subscriptions during recording
  /// (format v4) — the streaming analogue of dropped_events().
  void set_stream_dropped(std::uint64_t n);
  [[nodiscard]] std::uint64_t stream_dropped() const;

  // --- time-series tables (format v5) ---------------------------------------

  /// Window length used when the online analyser cut the snapshot tables;
  /// 0 means no windowing ran (pre-v5 files, or post-mortem-only traces).
  void set_window_period(Nanoseconds period_ns);
  [[nodiscard]] Nanoseconds window_period() const;

  void add_window(const WindowRecord& rec);
  void add_window_site(const WindowSiteRecord& rec);
  void add_alert(const AlertRecord& rec);

  // --- orderliness model table (format v6) -----------------------------------

  /// Appends one flattened interface-orderliness rule (see OrderRuleRecord).
  void add_order_rule(const OrderRuleRecord& rec);
  /// Replaces the whole rule table (perf::OrderModel embedding).
  void set_order_rules(std::vector<OrderRuleRecord> rules);

  // --- sharded writer API (see shard.hpp for the lifecycle) ----------------

  /// Creates a new per-thread shard and returns a stable reference (shards
  /// are heap-allocated; registration of further shards never moves them).
  EventShard& register_shard(ThreadId owner_thread, std::size_t owner_slot = 0);

  /// Cumulative statistics over every merge_shards() call on this database.
  struct MergeStats {
    std::size_t merges = 0;          // merge_shards() invocations
    std::size_t shards_merged = 0;   // non-empty shards drained
    std::size_t calls = 0;           // records stitched in, per table
    std::size_t aexs = 0;
    std::size_t paging = 0;
    std::size_t syncs = 0;
    std::size_t dropped = 0;         // events shards rejected after seal
    std::size_t interleaved = 0;     // tables whose shards' key ranges overlapped
  };

  /// Seals every live shard and stitches their records into the global
  /// record arrays, sorted by timestamp (ties broken by shard registration
  /// order, then append order — so a single-threaded trace merges to exactly
  /// the sequence the direct API would have produced).  Shard-local parent /
  /// during_call references are remapped to global indices.  One sequential
  /// pass per table: shards whose key ranges do not overlap are concatenated
  /// (a lone in-order shard moves into an empty table), and only a table
  /// whose shards interleave runs a k-way merge.  Drained shards remain
  /// registered as inert husks (late writers see a sealed shard) until
  /// reopen_shards(), clear() or destruction.  Callers must guarantee the
  /// shard writers have quiesced.  Returns the stats of *this* merge.
  MergeStats merge_shards();

  /// Resets every drained shard back to the recording state so its owner
  /// thread can keep appending (the logger's flush() path).  Quiesce first.
  void reopen_shards();

  [[nodiscard]] MergeStats merge_stats() const;
  [[nodiscard]] std::size_t shard_count() const;

  // --- reader API ----------------------------------------------------------

  [[nodiscard]] const std::vector<CallRecord>& calls() const noexcept { return calls_; }
  [[nodiscard]] const std::vector<AexRecord>& aexs() const noexcept { return aexs_; }
  [[nodiscard]] const std::vector<PagingRecord>& paging() const noexcept { return paging_; }
  [[nodiscard]] const std::vector<SyncRecord>& syncs() const noexcept { return syncs_; }
  [[nodiscard]] const std::vector<EnclaveRecord>& enclaves() const noexcept { return enclaves_; }
  [[nodiscard]] const std::vector<CallNameRecord>& call_names() const noexcept {
    return call_names_;
  }
  [[nodiscard]] const std::vector<MetricSeriesRecord>& metric_series() const noexcept {
    return metric_series_;
  }
  [[nodiscard]] const std::vector<MetricSampleRecord>& metric_samples() const noexcept {
    return metric_samples_;
  }
  [[nodiscard]] const std::vector<LatencyRecord>& latencies() const noexcept {
    return latencies_;
  }
  [[nodiscard]] const std::vector<WindowRecord>& windows() const noexcept { return windows_; }
  [[nodiscard]] const std::vector<WindowSiteRecord>& window_sites() const noexcept {
    return window_sites_;
  }
  [[nodiscard]] const std::vector<AlertRecord>& alerts() const noexcept { return alerts_; }
  [[nodiscard]] const std::vector<OrderRuleRecord>& order_rules() const noexcept {
    return order_rules_;
  }

  /// Total events rejected by sealed shards over the database's lifetime
  /// (accumulated at merge time, persisted in format v3).  Nonzero means the
  /// trace is silently truncated — the analyser surfaces this as a warning.
  [[nodiscard]] std::uint64_t dropped_events() const;

  /// Resolves a call's registered name; "<type>_<id>" if unregistered.
  [[nodiscard]] std::string name_of(EnclaveId enclave, CallType type, CallId id) const;

  /// Drops all rows and resets all shards and merge statistics (reuse
  /// between experiment repetitions).  Registered shards stay alive and
  /// recordable; their owner threads must be quiescent.
  void clear();

  // --- persistence (see serialize.cpp) -------------------------------------

  /// The flat binary format "SGXPTRC6" (see serialize.cpp); load() accepts
  /// no other.  Throws std::runtime_error on I/O or format errors, or
  /// std::logic_error if unmerged shard events exist (merge first — the file
  /// format has no notion of shards and must stay bit-stable).
  void save(const std::string& path) const;
  static TraceDatabase load(const std::string& path);

  /// Writes one CSV file per table into `directory` (created if needed).
  void export_csv(const std::string& directory) const;

 private:
  friend struct store::RawTables;

  mutable std::mutex mu_;
  std::vector<CallRecord> calls_;
  std::vector<AexRecord> aexs_;
  std::vector<PagingRecord> paging_;
  std::vector<SyncRecord> syncs_;
  std::vector<EnclaveRecord> enclaves_;
  std::vector<CallNameRecord> call_names_;
  std::vector<MetricSeriesRecord> metric_series_;
  std::vector<MetricSampleRecord> metric_samples_;
  std::vector<LatencyRecord> latencies_;
  std::vector<WindowRecord> windows_;
  std::vector<WindowSiteRecord> window_sites_;
  std::vector<AlertRecord> alerts_;
  std::vector<OrderRuleRecord> order_rules_;
  Nanoseconds window_period_ = 0;
  std::uint64_t dropped_events_ = 0;
  std::uint64_t stream_dropped_ = 0;

  std::vector<std::unique_ptr<EventShard>> shards_;
  MergeStats merge_stats_;
};

}  // namespace tracedb
