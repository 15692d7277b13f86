#include "perf/stream.hpp"

#include <bit>

#include "telemetry/metrics.hpp"

namespace perf {

StreamSubscription::StreamSubscription(std::string name, std::size_t capacity)
    : name_(std::move(name)) {
  if (capacity < 8) capacity = 8;
  capacity = std::bit_ceil(capacity);
  mask_ = capacity - 1;
  cells_ = std::make_unique<Cell[]>(capacity);
  for (std::size_t i = 0; i < capacity; ++i) {
    cells_[i].seq.store(i, std::memory_order_relaxed);
  }
  drop_metric_ = &telemetry::metrics().counter("logger.stream." + name_ + ".dropped", "events");
}

bool StreamSubscription::try_push(const StreamEvent& ev) noexcept {
  Cell* cell = nullptr;
  std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    cell = &cells_[pos & mask_];
    const std::size_t seq = cell->seq.load(std::memory_order_acquire);
    const auto dif = static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
    if (dif == 0) {
      if (enqueue_pos_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) break;
    } else if (dif < 0) {
      return false;  // ring full: the slot still holds an unconsumed event
    } else {
      pos = enqueue_pos_.load(std::memory_order_relaxed);
    }
  }
  cell->ev = ev;
  cell->seq.store(pos + 1, std::memory_order_release);
  return true;
}

void StreamSubscription::publish(const StreamEvent& ev) noexcept {
  if (try_push(ev)) return;
  dropped_.fetch_add(1, std::memory_order_relaxed);
  drop_metric_->add();
}

std::size_t StreamSubscription::poll(std::vector<StreamEvent>& out, std::size_t max) {
  if (max == 0) return 0;
  std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
  std::size_t n = 0;
  for (;;) {
    // The run of published cells from pos: cell pos+i is ready when its seq
    // reads pos+i+1.  A cell a producer has claimed but not yet filled ends
    // the run, so FIFO order holds.
    n = 0;
    while (n < max && cells_[(pos + n) & mask_].seq.load(std::memory_order_acquire) == pos + n + 1) {
      ++n;
    }
    if (n == 0) {
      const std::size_t seq = cells_[pos & mask_].seq.load(std::memory_order_acquire);
      if (static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos + 1) < 0) {
        return 0;  // ring empty
      }
      pos = dequeue_pos_.load(std::memory_order_relaxed);  // another consumer took it
      continue;
    }
    // One CAS claims the whole run; on failure pos holds the current head.
    if (dequeue_pos_.compare_exchange_weak(pos, pos + n, std::memory_order_relaxed)) break;
  }
  for (std::size_t i = 0; i < n; ++i) {
    Cell& cell = cells_[(pos + i) & mask_];
    out.push_back(cell.ev);
    cell.seq.store(pos + i + mask_ + 1, std::memory_order_release);
  }
  delivered_.fetch_add(n, std::memory_order_relaxed);
  return n;
}

void StreamSubscription::close() noexcept {
  if (active_.exchange(false, std::memory_order_acq_rel)) {
    if (live_ != nullptr) live_->fetch_sub(1, std::memory_order_release);
  }
}

std::shared_ptr<StreamSubscription> StreamHub::subscribe(std::string name,
                                                         std::size_t capacity) {
  std::lock_guard lock(mu_);
  for (auto& slot : slots_) {
    StreamSubscription* cur = slot.load(std::memory_order_relaxed);
    if (cur != nullptr && cur->active()) continue;
    auto sub = std::make_shared<StreamSubscription>(std::move(name), capacity);
    sub->live_ = &live_;
    owned_.push_back(sub);  // keeps the old occupant (if any) alive too
    live_.fetch_add(1, std::memory_order_release);
    slot.store(sub.get(), std::memory_order_release);
    return sub;
  }
  return nullptr;  // all slots held by active subscriptions
}

void StreamHub::publish(const StreamEvent& ev) noexcept {
  for (auto& slot : slots_) {
    StreamSubscription* sub = slot.load(std::memory_order_acquire);
    if (sub != nullptr && sub->active()) sub->publish(ev);
  }
}

std::uint64_t StreamHub::total_dropped() const {
  std::lock_guard lock(mu_);
  std::uint64_t total = 0;
  for (const auto& sub : owned_) total += sub->dropped();
  return total;
}

void StreamHub::close_all() noexcept {
  std::lock_guard lock(mu_);
  for (const auto& sub : owned_) sub->close();
}

}  // namespace perf
