// The sgx-perf event logger (§4, §4.1).
//
// In the original tool this is a shared library preloaded via LD_PRELOAD; it
// shadows sgx_ecall (Figure 2), rewrites ocall tables with generated stubs
// (Figure 3), optionally patches the AEP to count or trace AEXs (§4.1.4) and
// attaches kprobes to the driver's paging paths (§4.1.5).  Here it installs
// the equivalent hooks on the simulated URTS/driver — the application, the
// enclave and the SDK remain unmodified.
//
// Recording path: like the real tool, each worker thread appends to its own
// per-thread buffer (a tracedb::EventShard) with no locking on the hot path;
// detach() (or flush()) seals the shards and merges them into the globally
// time-ordered database, so the analyser and the serialized format never see
// a difference.  The hot path keeps no statistics of its own: the per-site
// latency table (format v4) is folded from the merged calls at that point,
// so it always agrees with the call table.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "perf/stream.hpp"
#include "perf/stubs.hpp"
#include "sgxsim/runtime.hpp"
#include "telemetry/sampler.hpp"
#include "tracedb/database.hpp"

namespace perf {

struct LoggerConfig {
  /// Count AEXs per ecall (cheap; Table 2 measures ~1,076 ns per AEX).
  bool count_aex = true;
  /// Additionally record each AEX with its timestamp (~1,118 ns per AEX).
  bool trace_aex = false;
  /// Subscribe to the driver's paging events (kprobe analogue).
  bool trace_paging = true;
  /// Virtual-time cadence at which the telemetry registry is sampled into
  /// the trace (MetricSample table, format v3).  0 = sampling off, which
  /// keeps traces byte-identical to pre-telemetry recordings.
  support::Nanoseconds metric_sample_period_ns = 0;
  /// Unread: the detach merge is sequential.  Kept only because wallbench
  /// still assigns it; the next benchmark change removes it.
  std::size_t merge_threads = 0;
};

/// Traces ecalls, ocalls, AEXs, synchronisation and paging into a
/// TraceDatabase.  Attach to a Urts before the workload runs, detach after.
class Logger {
 public:
  Logger(tracedb::TraceDatabase& db, LoggerConfig config = {});
  ~Logger();

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  /// Installs all hooks.  Enclaves created *before* attach are registered
  /// lazily on their first traced ecall.
  void attach(sgxsim::Urts& urts);

  /// Restores the original hooks, finalizes calls still in flight (their
  /// end timestamp becomes the detach time — never leaked half-open),
  /// merges all shards into the database and adds the merged calls to its
  /// latency table, closed calls included.  Safe to call from inside a
  /// traced call: the frames unwinding through the detached logger record
  /// nothing further.  A later attach() to the same database appends to
  /// both tables.
  void detach();

  /// Merges everything recorded so far into the database (latency table
  /// included) and reopens the shards for further recording — the
  /// mid-session quiescent point tests and tools use to inspect a trace
  /// without detaching.  Throws
  /// std::logic_error if any traced call is still in flight.  All worker
  /// threads must have quiesced.
  void flush();

  [[nodiscard]] bool attached() const noexcept { return urts_ != nullptr; }
  [[nodiscard]] tracedb::TraceDatabase& database() noexcept { return db_; }
  [[nodiscard]] const LoggerConfig& config() const noexcept { return config_; }

  /// Registers a live event subscription (see stream.hpp) — callable while
  /// recording is in flight, from any thread.  Returns nullptr when all
  /// subscriber slots are taken.  Subscriptions outlive detach(); close()
  /// them (or drop the handle) when done.
  std::shared_ptr<StreamSubscription> subscribe(std::string name,
                                                std::size_t capacity = 1 << 12);

  /// Events dropped across all streaming subscriptions so far.
  [[nodiscard]] std::uint64_t stream_dropped() const { return stream_.total_dropped(); }

  /// Events this logger's shards accepted or rejected (call starts, traced
  /// AEXs, paging, syncs), derived from the merge accounting — valid once
  /// detach() has merged the shards, at zero per-event cost.  This is the
  /// "produced" side of the ledger's record stage: with a fresh database it
  /// must equal db events + merge_stats().dropped, so the audit genuinely
  /// cross-checks the merge bookkeeping against the stitched tables.
  [[nodiscard]] std::uint64_t events_produced() const noexcept {
    const auto& m = db_.merge_stats();
    return m.calls + m.aexs + m.paging + m.syncs + m.dropped;
  }

  // --- stub callbacks (invoked by OcallStubRegistry trampolines) ------------
  sgxsim::SgxStatus on_stub_call(const OcallStubRegistry::StubInfo& info, void* ms);

 private:
  /// The shadow of sgx_ecall: records the event, swaps the ocall table for
  /// the stub table, chains to the real URTS implementation.
  sgxsim::SgxStatus shadow_sgx_ecall(sgxsim::EnclaveId eid, sgxsim::CallId id,
                                     const sgxsim::OcallTable* table, void* ms);

  /// Patched AEP: counts and/or traces the AEX.
  void on_aex(sgxsim::EnclaveId eid, sgxsim::ThreadId tid, support::Nanoseconds now,
              sgxsim::AexCause cause);

  void on_paging(sgxsim::EnclaveId eid, std::uint64_t page, sgxsim::PageDirection dir,
                 support::Nanoseconds now);

  void on_enclave_created(const sgxsim::Enclave& enclave);
  void on_enclave_destroyed(sgxsim::EnclaveId eid, support::Nanoseconds now);

  /// Registers ecall/ocall names for an enclave (from its EDL) once.
  void register_names(const sgxsim::Enclave& enclave);

  /// One in-flight traced call.  The record type is cached here so the hot
  /// path never reads the database (whose arrays another thread's merge
  /// could be growing) to classify the parent.
  struct StackEntry {
    tracedb::CallIndex index = tracedb::kNoParent;  // shard-local
    tracedb::CallType type = tracedb::CallType::kEcall;
    /// Stream identity of this in-flight call: (call_id, start_ns) lets a
    /// nested call's completion event name its parent *instance* without
    /// touching the database (per-thread start times are unique).
    tracedb::CallId call_id = 0;
    support::Nanoseconds start_ns = 0;
  };

  /// Per-thread recording state, touched only by its owner thread on the
  /// hot path; every record goes to `shard`, this thread's EventShard.
  struct PerThread {
    tracedb::EventShard* shard = nullptr;
    std::vector<StackEntry> stack;
    std::uint32_t aex_count_current_ecall = 0;
    /// Enclaves whose lazy registration this thread has already verified —
    /// keeps the per-ecall registration check off the logger mutex.
    std::vector<sgxsim::EnclaveId> enclaves_seen;
  };

  /// This thread's recording state for the current attach epoch.  Uses a
  /// thread-local cache keyed by a globally unique attach token (the same
  /// pattern as Urts::thread_state), so the lookup is lock-free after the
  /// first call and never confuses epochs or logger instances.
  PerThread& per_thread();

  /// Appends a call start to this thread's shard and counts it (or its
  /// late drop, once the shard is sealed).
  tracedb::CallIndex record_call(PerThread& pt, const tracedb::CallRecord& rec);

  /// Ensures `eid`'s enclave record and call names exist (lazy path for
  /// enclaves created before attach).
  void ensure_enclave_registered(PerThread& pt, sgxsim::EnclaveId eid);

  /// Finalizes every in-flight call of every thread at time `now`.
  void finalize_open_calls(support::Nanoseconds now);

  /// Merges the shards into the database, folds the merged calls into its
  /// latency table and records the stream-drop count (the v4 tables) —
  /// called at detach() and flush().
  void merge_into_database();

  tracedb::TraceDatabase& db_;
  LoggerConfig config_;
  sgxsim::Urts* urts_ = nullptr;
  std::uint64_t attach_token_ = 0;

  /// Snapshots the metrics registry into the database on a virtual-time
  /// cadence; polled from the recording hot paths.  Null when sampling is
  /// off (the default).
  std::unique_ptr<telemetry::TelemetrySampler> sampler_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<PerThread>> per_threads_;
  std::unordered_map<sgxsim::EnclaveId, bool> names_registered_;

  /// Live-subscriber fan-out.  The hot paths pay one relaxed load when
  /// nobody is subscribed.
  StreamHub stream_;
};

}  // namespace perf
