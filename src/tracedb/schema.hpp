// Typed event schema of the sgx-perf trace database.
//
// The original tool serialises all events into a SQLite database (§4 of the
// paper).  SQLite is not available in this environment, so tracedb is an
// embedded, typed, append-oriented store exposing the same relational views
// the analyser needs: calls (ecalls/ocalls with direct parents), AEXs,
// paging events, synchronisation events, and per-enclave metadata.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/clock.hpp"

namespace telemetry {
class HdrSnapshot;
}  // namespace telemetry

namespace tracedb {

using support::Nanoseconds;

using EnclaveId = std::uint64_t;
using ThreadId = std::uint32_t;
using CallId = std::uint32_t;

/// Index of a record inside TraceDatabase::calls(); kNoParent when absent.
using CallIndex = std::int64_t;
inline constexpr CallIndex kNoParent = -1;

enum class CallType : std::uint8_t {
  kEcall = 0,
  kOcall = 1,
};
inline constexpr std::uint8_t kCallTypeCount = 2;

/// Classification of ocalls, mirroring §4.1.3: the SDK's four in-enclave
/// synchronisation ocalls reduce to sleep and wake-up events; everything
/// else is generic.
enum class OcallKind : std::uint8_t {
  kGeneric = 0,
  kSleep = 1,        // thread waits outside the enclave
  kWakeOne = 2,      // wake a single waiter
  kWakeMultiple = 3, // wake several waiters
  kWakeOneAndSleep = 4,
};
inline constexpr std::uint8_t kOcallKindCount = 5;

/// One completed ecall or ocall.
struct CallRecord {
  CallType type = CallType::kEcall;
  OcallKind kind = OcallKind::kGeneric;  // meaningful for ocalls only
  ThreadId thread_id = 0;
  EnclaveId enclave_id = 0;
  CallId call_id = 0;
  /// Direct parent per §4.3.2: the call of the *other* type during which this
  /// call was issued (an ecall's parent is an ocall and vice versa).
  CallIndex parent = kNoParent;
  Nanoseconds start_ns = 0;
  Nanoseconds end_ns = 0;
  /// AEXs observed during this call (ecalls, when AEX counting is enabled).
  std::uint32_t aex_count = 0;

  [[nodiscard]] Nanoseconds duration() const noexcept { return end_ns - start_ns; }
};

/// Why an AEX happened.  On SGX v1 the reason cannot be observed (§4.1.4:
/// "we cannot differentiate interrupts from simple page faults"); SGX v2
/// records the exit type, readable for debug enclaves.
enum class AexCause : std::uint8_t {
  kUnknown = 0,    // SGX v1, or a non-debug enclave
  kInterrupt = 1,  // timer / external interrupt
  kPageFault = 2,  // EPC fault during enclave execution
};
inline constexpr std::uint8_t kAexCauseCount = 3;

/// One Asynchronous Enclave Exit (recorded when AEX *tracing* is enabled).
struct AexRecord {
  ThreadId thread_id = 0;
  EnclaveId enclave_id = 0;
  Nanoseconds timestamp_ns = 0;
  /// The ecall during which the AEX occurred, if attributable.
  CallIndex during_call = kNoParent;
  AexCause cause = AexCause::kUnknown;
};

enum class PageDirection : std::uint8_t {
  kPageIn = 0,   // ELDU-like: page loaded back into the EPC
  kPageOut = 1,  // EWB-like: page evicted from the EPC
};
inline constexpr std::uint8_t kPageDirectionCount = 2;

/// One EPC paging event, captured via the (simulated) kprobe on the driver.
struct PagingRecord {
  EnclaveId enclave_id = 0;
  std::uint64_t page_number = 0;  // enclave-relative page index
  PageDirection direction = PageDirection::kPageOut;
  Nanoseconds timestamp_ns = 0;
};

enum class SyncKind : std::uint8_t {
  kSleep = 0,
  kWakeup = 1,
};
inline constexpr std::uint8_t kSyncKindCount = 2;

/// One synchronisation dependency event: which thread slept, which thread
/// woke which other thread (§4.1.3 "track which thread wakes up which other
/// threads to track dependencies").
struct SyncRecord {
  SyncKind kind = SyncKind::kSleep;
  ThreadId thread_id = 0;          // acting thread
  ThreadId target_thread_id = 0;   // woken thread (wakeups only)
  EnclaveId enclave_id = 0;
  Nanoseconds timestamp_ns = 0;
};

/// Per-enclave metadata.
struct EnclaveRecord {
  EnclaveId enclave_id = 0;
  std::string name;
  Nanoseconds created_ns = 0;
  Nanoseconds destroyed_ns = 0;  // 0 while alive
  std::uint32_t tcs_count = 0;
  std::uint64_t size_bytes = 0;
};

/// Human-readable name for a call id, one row per (enclave, type, id).
struct CallNameRecord {
  EnclaveId enclave_id = 0;
  CallType type = CallType::kEcall;
  CallId call_id = 0;
  std::string name;
};

using MetricSeriesId = std::uint32_t;

enum class MetricKind : std::uint8_t {
  kCounter = 0,  // monotonically increasing
  kGauge = 1,    // may go up and down
};
inline constexpr std::uint8_t kMetricKindCount = 2;

/// Metadata for one telemetry timeseries (format v3).  One row per metric
/// name; samples reference the series by id.
struct MetricSeriesRecord {
  MetricSeriesId series_id = 0;
  MetricKind kind = MetricKind::kCounter;
  std::string name;
  std::string unit;
};

/// One sampled metric value at a virtual timestamp (format v3).
struct MetricSampleRecord {
  MetricSeriesId series_id = 0;
  Nanoseconds timestamp_ns = 0;
  double value = 0.0;
};

/// Typed anti-pattern alert raised by the online analyser (format v5).
/// Values are pinned — they are persisted as a byte in the trace file.
enum class AlertKind : std::uint8_t {
  kShortCalls = 0,      // SISC/SDSC, Eq. 1
  kReorderStart = 1,    // SNC reordering towards the parent's start, Eq. 2
  kReorderEnd = 2,      // SNC reordering towards the parent's end, Eq. 2
  kBatchable = 3,       // SNC batching, Eq. 3 (indirect parent == self)
  kMergeable = 4,       // SNC merging, Eq. 3 (indirect parent != self)
  kSyncContention = 5,  // SSC: short sleep/wake ocalls
  kPaging = 6,          // EPC paging pressure
  kTailLatency = 7,     // p99 ≫ p50 at a call site
  kLatencyShift = 8,    // EWMA/CUSUM change-point: site latency regime moved
  // Interface-orderliness violations (format v6) — raised by the
  // perf::OrderChecker against a learned or declared per-enclave model.
  kOutOfOrderEcall = 9,   // top-level ecall outside the allowed edge set
  kReentrantEcall = 10,   // nested ecall (under an ocall) not whitelisted
  kUseBeforeInit = 11,    // steady-state ecall before the init ecall finished
  kUseAfterDestroy = 12,  // ecall issued after enclave destruction
  kPhaseViolation = 13,   // lifecycle phase re-entered (e.g. double init)
};
inline constexpr std::uint8_t kAlertKindCount = 14;

/// One fixed-interval snapshot of workload-wide activity (format v5).
/// Windows are cut on the *virtual* clock, so a replayed trace produces a
/// byte-identical window table.
struct WindowRecord {
  std::uint32_t window_index = 0;
  Nanoseconds start_ns = 0;
  Nanoseconds end_ns = 0;
  std::uint64_t calls = 0;          // calls completed inside the window
  std::uint64_t aexs = 0;
  std::uint64_t page_ins = 0;
  std::uint64_t page_outs = 0;
  std::uint64_t stream_dropped = 0;     // cumulative subscriber drops so far
  std::uint64_t switchless_calls = 0;   // cumulative Urts switchless stats
  std::uint64_t switchless_fallbacks = 0;
  std::uint64_t switchless_wasted_ns = 0;
  std::uint32_t active_alerts = 0;      // alerts live when the window closed
};

/// Per-site activity inside one window (format v5): rates and percentile
/// deltas for every (enclave, type, call_id) that completed a call there.
struct WindowSiteRecord {
  std::uint32_t window_index = 0;
  EnclaveId enclave_id = 0;
  CallType type = CallType::kEcall;
  CallId call_id = 0;
  std::uint64_t calls = 0;      // completions inside the window
  std::uint64_t aex_count = 0;  // AEXs attributed to those completions
  Nanoseconds p50_ns = 0;       // window-local percentiles (HDR delta)
  Nanoseconds p99_ns = 0;
};

/// One alert raised by the online analyser (format v5).  `resolved_ns == 0`
/// means the condition still held when the trace ended.
struct AlertRecord {
  AlertKind kind = AlertKind::kShortCalls;
  EnclaveId enclave_id = 0;
  CallType type = CallType::kEcall;
  CallId call_id = 0;
  Nanoseconds onset_ns = 0;     // virtual time the threshold was first crossed
  Nanoseconds resolved_ns = 0;  // 0 while active
  std::uint32_t window_index = 0;  // window during which the alert fired
  /// Kind-specific magnitude: Eq. 1/2/3 score ×1000, paging event count,
  /// tail p99/p50 ratio ×1000, CUSUM deviation ×1000.
  std::uint64_t detail = 0;
};

/// One rule of a per-enclave interface-orderliness model (format v6).  The
/// perf::OrderModel is flattened into these rows for persistence so a trace
/// can carry the model it was (or should be) validated against.  `rule` is
/// pinned — it is persisted as a byte in the trace file.
struct OrderRuleRecord {
  enum class Rule : std::uint8_t {
    kInit = 0,         // a: the enclave's init ecall id
    kEntry = 1,        // a: ecall id allowed as a thread's first top-level call
    kKnownEcall = 2,   // a: ecall id that exists in the model at all
    kEdge = 3,         // a -> b: allowed consecutive top-level ecall pair
    kReentrantOk = 4,  // a: ecall id allowed nested under an ocall
  };
  EnclaveId enclave_id = 0;
  Rule rule = Rule::kKnownEcall;
  CallId a = 0;
  CallId b = 0;  // meaningful for kEdge only
};
inline constexpr std::uint8_t kOrderRuleKindCount = 5;

/// Sparse HDR latency histogram for one (enclave, type, call_id) call site
/// (format v4).  Buckets follow the fixed telemetry::hdr geometry — the
/// file header records (sub_bits, max_exponent) and the loader validates
/// them against the compiled constants, so indices are portable.  Only
/// non-empty buckets are stored, as (index, count) pairs in ascending
/// index order.
struct LatencyRecord {
  EnclaveId enclave_id = 0;
  CallType type = CallType::kEcall;
  CallId call_id = 0;
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;  // exact sum of recorded durations
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
};

/// The HDR histogram `rec` stores, with its exact sum.
[[nodiscard]] telemetry::HdrSnapshot snapshot_of(const LatencyRecord& rec);

/// The latency row of one call site holding `snap`'s non-empty buckets,
/// count and sum.
[[nodiscard]] LatencyRecord latency_record(EnclaveId enclave, CallType type, CallId call_id,
                                           const telemetry::HdrSnapshot& snap);

}  // namespace tracedb
