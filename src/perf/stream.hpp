// Live event streaming for the logger.
//
// sgx-perf is a post-mortem tool: nothing is observable until
// Logger::detach() seals the shards and merges the trace.  A production
// enclave can never be detached, so this layer lets consumers subscribe to
// a bounded, lock-free event feed while recording is in flight:
//
//   auto sub = logger.subscribe("top", 1 << 14);
//   ... workload runs in other threads ...
//   std::vector<perf::StreamEvent> batch;
//   sub->poll(batch, 4096);     // consumer side, any thread
//
// Design constraints, in order:
//   1. The recording hot path must stay wait-free: publish() does one
//      relaxed load when nobody is subscribed, and one CAS + one store per
//      subscriber otherwise (Vyukov bounded MPMC ring).  No per-event
//      counter: published() is derived from the enqueue position and the
//      drop count, since every accepted push advances the position once.
//      The consumer claims the whole run of published cells at its head
//      with one CAS per poll(), not one per event, then copies the run out
//      and releases each cell with one store.
//   2. Never block, never allocate on the hot path: a full ring *drops*
//      the event and counts the drop — per subscriber — in both the
//      subscription and the metrics registry
//      ("logger.stream.<name>.dropped"), mirroring how sealed-shard drops
//      are already surfaced.
//   3. No reclamation races: the hub owns every subscription it ever
//      created (shared_ptr) and only hands out additional owners.  close()
//      flips an atomic flag that producers observe; the storage outlives
//      any concurrent publish by construction, so the scheme is TSan-clean
//      without hazard pointers.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "tracedb/schema.hpp"

namespace telemetry {
class Counter;
}

namespace perf {

/// One event as seen by a live subscriber.  A fixed-size POD copied into
/// the ring: calls are published on *completion* (so the duration is
/// known); AEX, paging and enclave-lifecycle events are published as they
/// happen.  Lifecycle events (format v6) carry only enclave_id/start_ns —
/// they feed the online orderliness checker's create/destroy edges.
struct StreamEvent {
  enum class Kind : std::uint8_t {
    kCall = 0,
    kAex = 1,
    kPaging = 2,
    kEnclaveCreated = 3,
    kEnclaveDestroyed = 4,
  };

  Kind kind = Kind::kCall;
  tracedb::CallType call_type = tracedb::CallType::kEcall;
  /// kCall ocalls: the sleep/wake classification (§4.1.3), so online
  /// consumers can run the SSC detector without a name lookup.
  tracedb::OcallKind ocall_kind = tracedb::OcallKind::kGeneric;
  /// kCall: true when the direct parent fields below are meaningful (the
  /// call was nested inside a call of the other type on the same thread).
  bool parent_valid = false;
  std::uint32_t thread_id = 0;
  std::uint64_t enclave_id = 0;
  std::uint32_t call_id = 0;
  std::uint32_t aex_count = 0;   // kCall: AEXs during this call
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;      // kAex/kPaging: == start_ns
  /// Direct parent (§4.3.2), identified by its call id and start timestamp.
  /// The (thread_id, parent_start_ns) pair names one parent *instance*: the
  /// per-thread virtual clock strictly advances, so no two calls on a
  /// thread share a start time.  Children publish on completion, before
  /// their parent completes — consumers correlate on the parent's own
  /// completion event.
  tracedb::CallType parent_type = tracedb::CallType::kEcall;
  std::uint32_t parent_call_id = 0;
  std::uint64_t parent_start_ns = 0;
};

/// A bounded MPMC ring (Vyukov queue) between the recording threads and one
/// consumer.  try_push() never blocks: when the consumer lags, events are
/// dropped and accounted.  poll() claims a run of events at a time and stays
/// safe with several consumers: a claim that loses its CAS rescans.
class StreamSubscription {
 public:
  /// `capacity` is rounded up to a power of two (minimum 8).
  StreamSubscription(std::string name, std::size_t capacity);

  StreamSubscription(const StreamSubscription&) = delete;
  StreamSubscription& operator=(const StreamSubscription&) = delete;

  /// Producer side: enqueues `ev`, or counts a drop if the ring is full.
  /// Safe from any thread, lock-free.
  void publish(const StreamEvent& ev) noexcept;

  /// Consumer side: appends up to `max` pending events to `out`.  Returns
  /// the number drained.  Safe from any thread.
  std::size_t poll(std::vector<StreamEvent>& out, std::size_t max = 4096);

  /// Stops delivery: producers skip this subscription from now on.  Events
  /// already enqueued can still be poll()ed.  Idempotent.
  void close() noexcept;

  [[nodiscard]] bool active() const noexcept {
    return active_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t delivered() const noexcept {
    return delivered_.load(std::memory_order_relaxed);
  }
  /// Events offered to this subscription (enqueued + dropped) — the
  /// "produced" side of the ledger's stream stage.  Once the ring is
  /// drained, published() == delivered() + dropped().
  [[nodiscard]] std::uint64_t published() const noexcept {
    return enqueue_pos_.load(std::memory_order_relaxed) + dropped();
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

 private:
  friend class StreamHub;

  struct Cell {
    std::atomic<std::size_t> seq;
    StreamEvent ev;
  };

  [[nodiscard]] bool try_push(const StreamEvent& ev) noexcept;

  std::string name_;
  std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
  alignas(64) std::atomic<bool> active_{true};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> delivered_{0};
  /// Registry counter "logger.stream.<name>.dropped" — resolved once at
  /// construction so drops are a relaxed add, like every other hot-path
  /// metric.  Never null.
  telemetry::Counter* drop_metric_ = nullptr;
  /// Hub's live-subscriber count; decremented exactly once by close().
  std::atomic<int>* live_ = nullptr;
};

/// Fan-out point owned by the Logger.  Fixed slot array so the hot path is
/// a bounded scan of raw atomics; subscribe/close are the cold path.
class StreamHub {
 public:
  static constexpr std::size_t kMaxSubscribers = 8;

  /// Registers a new subscription.  Returns nullptr when all slots are held
  /// by *active* subscriptions (closed slots are reused; their old rings
  /// stay owned by the hub until it is destroyed, keeping concurrent
  /// publishers safe).
  std::shared_ptr<StreamSubscription> subscribe(std::string name, std::size_t capacity);

  /// Hot-path gate: one relaxed load.  True iff at least one subscription
  /// is active.
  [[nodiscard]] bool has_subscribers() const noexcept {
    return live_.load(std::memory_order_relaxed) > 0;
  }

  /// Delivers `ev` to every active subscription.
  void publish(const StreamEvent& ev) noexcept;

  /// Sum of drop counts over every subscription ever registered (closed
  /// ones included) — the number reported next to sealed-shard drops.
  [[nodiscard]] std::uint64_t total_dropped() const;

  /// Closes every subscription (consumers see active() == false).
  void close_all() noexcept;

 private:
  std::array<std::atomic<StreamSubscription*>, kMaxSubscribers> slots_{};
  std::atomic<int> live_{0};
  mutable std::mutex mu_;
  /// Owns every subscription ever created so a raw slot pointer read by a
  /// concurrent publisher can never dangle.
  std::vector<std::shared_ptr<StreamSubscription>> owned_;
};

}  // namespace perf
