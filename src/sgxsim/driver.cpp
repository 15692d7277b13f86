#include "sgxsim/driver.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/metrics.hpp"

namespace sgxsim {

namespace {

/// Registry handles resolved once per process; the paging paths pay only
/// relaxed atomic adds after that.
struct DriverMetrics {
  telemetry::Gauge& epc_resident = telemetry::metrics().gauge("sgxsim.epc_resident", "pages");
  telemetry::Counter& epc_evictions =
      telemetry::metrics().counter("sgxsim.epc_evictions", "pages");
  telemetry::Counter& page_ins = telemetry::metrics().counter("sgxsim.page_ins", "pages");
  telemetry::Counter& page_faults = telemetry::metrics().counter("sgxsim.page_faults", "faults");
  /// Virtual ns spent (charged) encrypting/decrypting pages on the EWB/ELDU
  /// paths — the dominant paging cost (§2.3.3).
  telemetry::Counter& page_crypto_ns =
      telemetry::metrics().counter("sgxsim.page_crypto_ns", "ns");
};

DriverMetrics& driver_metrics() {
  static DriverMetrics m;
  return m;
}

}  // namespace

Driver::Driver(support::VirtualClock& clock, const CostModel& cost, std::size_t epc_pages)
    : clock_(clock), cost_(cost), epc_pages_(epc_pages) {
  if (epc_pages == 0) throw std::invalid_argument("Driver: EPC must have at least one page");
}

Driver::~Driver() {
  std::lock_guard lock(mu_);
  if (!resident_.empty()) {
    driver_metrics().epc_resident.sub(static_cast<std::int64_t>(resident_.size()));
  }
}

void Driver::set_trace_hooks(PageHook hook) {
  std::lock_guard lock(mu_);
  hook_ = std::move(hook);
}

void Driver::clear_trace_hooks() {
  std::lock_guard lock(mu_);
  hook_ = nullptr;
}

void Driver::lru_touch(const PageKey& key) {
  const auto it = resident_.find(key);
  lru_.splice(lru_.begin(), lru_, it->second);
}

void Driver::evict_one() {
  const PageKey victim = lru_.back();
  lru_.pop_back();
  resident_.erase(victim);
  ++page_outs_;
  auto& m = driver_metrics();
  m.epc_evictions.add();
  m.epc_resident.sub(1);
  m.page_crypto_ns.add(cost_.page_out_ns);
  const auto now = clock_.advance(cost_.page_out_ns);
  if (hook_) hook_(victim.enclave, victim.page, PageDirection::kOut, now);
}

void Driver::add_page(EnclaveId enclave, std::uint64_t page) {
  std::lock_guard lock(mu_);
  const PageKey key{enclave, page};
  if (resident_.contains(key)) return;
  clock_.advance(cost_.eadd_ns);
  if (resident_.size() >= epc_pages_) evict_one();
  lru_.push_front(key);
  resident_.emplace(key, lru_.begin());
  peak_resident_ = std::max(peak_resident_, resident_.size());
  driver_metrics().epc_resident.add(1);
}

void Driver::remove_enclave(EnclaveId enclave) {
  std::lock_guard lock(mu_);
  std::int64_t removed = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->enclave == enclave) {
      resident_.erase(*it);
      it = lru_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  if (removed > 0) driver_metrics().epc_resident.sub(removed);
}

bool Driver::ensure_resident(EnclaveId enclave, std::uint64_t page) {
  std::lock_guard lock(mu_);
  const PageKey key{enclave, page};
  if (resident_.contains(key)) {
    lru_touch(key);
    return false;
  }
  // EPC fault: kernel handling + eviction (if full) + page-in.
  auto& m = driver_metrics();
  m.page_faults.add();
  clock_.advance(cost_.page_fault_ns);
  if (resident_.size() >= epc_pages_) evict_one();
  ++page_ins_;
  m.page_ins.add();
  m.page_crypto_ns.add(cost_.page_in_ns);
  const auto now = clock_.advance(cost_.page_in_ns);
  lru_.push_front(key);
  resident_.emplace(key, lru_.begin());
  peak_resident_ = std::max(peak_resident_, resident_.size());
  m.epc_resident.add(1);
  if (hook_) hook_(enclave, page, PageDirection::kIn, now);
  return true;
}

bool Driver::is_resident(EnclaveId enclave, std::uint64_t page) const {
  std::lock_guard lock(mu_);
  return resident_.contains(PageKey{enclave, page});
}

std::size_t Driver::resident_pages() const {
  std::lock_guard lock(mu_);
  return resident_.size();
}

std::size_t Driver::peak_resident_pages() const {
  std::lock_guard lock(mu_);
  return peak_resident_;
}

}  // namespace sgxsim
