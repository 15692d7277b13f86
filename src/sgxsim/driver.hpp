// The simulated SGX kernel driver: owner of the Enclave Page Cache.
//
// The EPC is a fixed pool shared by *all* enclaves on the machine
// (§2.3.3: "the EPC is shared between all running enclaves").  When it
// overflows, the driver evicts the least-recently-used page (EWB: encrypt +
// version), and faults it back in on next access (ELDU: decrypt + verify).
// sgx-perf traces these transitions through kprobe-style hooks on the
// driver's page-in/page-out paths (§4.1.5) — set_trace_hooks() is that
// kprobe attachment point.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>

#include "sgxsim/cost_model.hpp"
#include "sgxsim/types.hpp"
#include "support/clock.hpp"

namespace sgxsim {

enum class PageDirection : std::uint8_t { kIn = 0, kOut = 1 };

class Driver {
 public:
  /// `epc_pages` is the number of *usable* EPC pages.  The production default
  /// models the paper's 93 MiB usable EPC; tests shrink it to force paging.
  static constexpr std::size_t kDefaultEpcPages = 93ull * 1024 * 1024 / kPageSize;  // 23,808

  Driver(support::VirtualClock& clock, const CostModel& cost,
         std::size_t epc_pages = kDefaultEpcPages);

  /// Returns this driver's still-resident pages to the process-wide EPC
  /// residency gauge (several simulated machines share one registry).
  ~Driver();

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// kprobe attachment point: called with (enclave, page, direction,
  /// timestamp) on every page-in / page-out.
  using PageHook =
      std::function<void(EnclaveId, std::uint64_t, PageDirection, support::Nanoseconds)>;
  void set_trace_hooks(PageHook hook);
  void clear_trace_hooks();

  /// EADD: adds a page at enclave build time, evicting if the EPC is full.
  /// Charges the EADD+EEXTEND cost.
  void add_page(EnclaveId enclave, std::uint64_t page);

  /// Releases all EPC pages of an enclave (enclave destruction).
  void remove_enclave(EnclaveId enclave);

  /// Ensures (enclave, page) is EPC-resident, faulting it in if needed.
  /// Returns true when a page-in occurred (i.e. the access faulted).
  bool ensure_resident(EnclaveId enclave, std::uint64_t page);

  [[nodiscard]] bool is_resident(EnclaveId enclave, std::uint64_t page) const;

  [[nodiscard]] std::size_t epc_pages() const noexcept { return epc_pages_; }
  [[nodiscard]] std::size_t resident_pages() const;
  /// The most pages this driver has held resident at once.
  [[nodiscard]] std::size_t peak_resident_pages() const;
  [[nodiscard]] std::uint64_t page_in_count() const noexcept { return page_ins_; }
  [[nodiscard]] std::uint64_t page_out_count() const noexcept { return page_outs_; }

 private:
  struct PageKey {
    EnclaveId enclave;
    std::uint64_t page;
    bool operator==(const PageKey&) const = default;
  };
  struct PageKeyHash {
    std::size_t operator()(const PageKey& k) const noexcept {
      return std::hash<std::uint64_t>{}(k.enclave * 0x9E3779B97F4A7C15ull ^ k.page);
    }
  };

  /// Marks a resident page most-recently-used.  Caller holds mu_.
  void lru_touch(const PageKey& key);
  /// Evicts the LRU page.  Caller holds mu_.
  void evict_one();

  support::VirtualClock& clock_;
  const CostModel& cost_;
  std::size_t epc_pages_;

  mutable std::mutex mu_;
  std::list<PageKey> lru_;  // front = most recently used
  std::unordered_map<PageKey, std::list<PageKey>::iterator, PageKeyHash> resident_;
  std::uint64_t page_ins_ = 0;
  std::uint64_t page_outs_ = 0;
  std::size_t peak_resident_ = 0;
  PageHook hook_;
};

}  // namespace sgxsim
