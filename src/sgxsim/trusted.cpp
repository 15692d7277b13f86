// TrustedContext: the TRTS service surface available to trusted functions.
#include "sgxsim/runtime.hpp"

#include "telemetry/metrics.hpp"

namespace sgxsim {

namespace {

// Same registry instruments as runtime.cpp's (registration is idempotent by
// name), resolved once per process.
telemetry::Counter& transitions_counter(PatchLevel lvl) {
  static telemetry::Counter& unpatched =
      telemetry::metrics().counter("sgxsim.transitions.unpatched", "transitions");
  static telemetry::Counter& spectre =
      telemetry::metrics().counter("sgxsim.transitions.spectre", "transitions");
  static telemetry::Counter& l1tf =
      telemetry::metrics().counter("sgxsim.transitions.spectre_l1tf", "transitions");
  switch (lvl) {
    case PatchLevel::kSpectre: return spectre;
    case PatchLevel::kSpectreL1tf: return l1tf;
    case PatchLevel::kUnpatched: break;
  }
  return unpatched;
}

}  // namespace

SgxStatus TrustedContext::ocall(CallId id, void* ms) {
  Urts::CallFrame* ecall = urts_.innermost_ecall(ts_);
  if (ecall == nullptr || ecall->table == nullptr) return SgxStatus::kOcallNotAllowed;
  const OcallTable* table = ecall->table;
  if (id >= table->entries.size()) return SgxStatus::kOcallNotAllowed;

  // TRTS side: build the ocall frame, marshal arguments.
  urts_.charge_in_enclave(ts_, urts_.cost_.trts_ocall_overhead_ns);

  // EEXIT to the URTS ocall dispatcher.
  transitions_counter(urts_.cost_.level).add();
  urts_.clock_.advance(urts_.cost_.eexit_ns);
  ts_.frames.push_back(Urts::CallFrame{enclave_.id(), /*is_ocall=*/true, id, table, 0});
  urts_.clock_.advance(urts_.cost_.urts_ocall_dispatch_ns);

  // The table entry runs untrusted — this is where sgx-perf's generated call
  // stub sits once the table has been rewritten (Figure 3).
  SgxStatus ret;
  try {
    ret = table->entries[id](ms);
  } catch (...) {
    ret = SgxStatus::kUnexpected;
  }

  // ERESUME-equivalent EENTER back into the enclave.
  urts_.clock_.advance(urts_.cost_.eenter_ns);
  ts_.frames.pop_back();
  ts_.next_aex_deadline = urts_.clock_.now() + urts_.cost_.timer_period_ns;
  return ret;
}

void TrustedContext::work(support::Nanoseconds ns) { urts_.charge_in_enclave(ts_, ns); }

void TrustedContext::copy_in(std::uint64_t bytes) {
  work(static_cast<support::Nanoseconds>(static_cast<double>(bytes) *
                                         urts_.cost_.copy_ns_per_byte));
}

void TrustedContext::copy_out(std::uint64_t bytes) { copy_in(bytes); }

void TrustedContext::touch(EnclaveAddr addr, std::uint64_t len, MemAccess access) {
  if (len == 0) return;
  // An EPC fault during enclave execution forces an AEX before the kernel
  // can page the data in (§2.3.3: paging costs "added enclave transitions to
  // handle page faults") — this is exactly what pre-loading pages before the
  // ecall avoids (§3.5 (ii)).
  const std::uint64_t first = addr / kPageSize;
  const std::uint64_t last = (addr + len - 1) / kPageSize;
  for (std::uint64_t page = first; page <= last; ++page) {
    if (enclave_.touch_page(page, access)) {
      static telemetry::Counter& aex_injected =
          telemetry::metrics().counter("sgxsim.aex_injected", "events");
      aex_injected.add();
      urts_.clock_.advance(urts_.cost_.aex_ns);
      if (urts_.hooks_.aep) {
        urts_.hooks_.aep(enclave_.id(), ts_.id, urts_.clock_.now(), AexCause::kPageFault);
      }
      ts_.next_aex_deadline = urts_.clock_.now() + urts_.cost_.timer_period_ns;
    }
  }
}

SgxStatus TrustedContext::sync_ocall(SyncOcall which, ThreadId target,
                                     const std::vector<ThreadId>* targets) {
  Urts::CallFrame* ecall = urts_.innermost_ecall(ts_);
  if (ecall == nullptr || ecall->table == nullptr) return SgxStatus::kOcallNotAllowed;
  static telemetry::Counter& sync_ocalls =
      telemetry::metrics().counter("sgxsim.sync_ocalls", "calls");
  sync_ocalls.add();
  SyncOcallMs ms;
  ms.urts = &urts_;
  ms.self = ts_.id;
  ms.target = target;
  ms.targets = targets;
  return ocall(ecall->table->sync_base + static_cast<CallId>(which), &ms);
}

SgxStatus TrustedContext::mutex_lock(MutexId id) {
  // SDK semantics (§2.3.2): an uncontended lock is taken entirely inside the
  // enclave; contention enqueues the thread and issues a sleep ocall.
  auto try_take = [&]() -> bool {
    std::lock_guard lock(enclave_.sync_mu());
    auto& m = enclave_.mutex_state(id);
    if (m.owner == 0) {
      m.owner = ts_.id;
      return true;
    }
    return false;
  };

  work(40);  // in-enclave lock bookkeeping
  if (try_take()) return SgxStatus::kSuccess;

  // Hybrid mutex (§3.4): spin inside the enclave before sleeping outside.
  {
    MutexKind kind;
    std::uint32_t spin_limit;
    {
      std::lock_guard lock(enclave_.sync_mu());
      const auto& m = enclave_.mutex_state(id);
      kind = m.kind;
      spin_limit = m.spin_limit;
    }
    if (kind == MutexKind::kHybridSpin) {
      for (std::uint32_t i = 0; i < spin_limit; ++i) {
        work(urts_.cost_.spin_iteration_ns);
        // A PAUSE-style backoff that also takes real time, so spinning can
        // genuinely outlast a concurrently-held critical section.
        for (volatile int backoff = 0; backoff < 8;) {
          backoff = backoff + 1;
        }
        if (try_take()) return SgxStatus::kSuccess;
      }
    }
  }

  for (;;) {
    {
      std::lock_guard lock(enclave_.sync_mu());
      auto& m = enclave_.mutex_state(id);
      if (m.owner == 0) {
        m.owner = ts_.id;
        return SgxStatus::kSuccess;
      }
      m.waiters.push_back(ts_.id);
    }
    // Sleep outside the enclave; the unlocking thread wakes us with its own
    // ocall — "a mutex lock can therefore result in two ocalls" (§2.3.2).
    const SgxStatus st = sync_ocall(SyncOcall::kWaitEvent, ts_.id);
    if (st != SgxStatus::kSuccess) return st;
  }
}

SgxStatus TrustedContext::mutex_unlock(MutexId id) {
  ThreadId to_wake = 0;
  {
    std::lock_guard lock(enclave_.sync_mu());
    auto& m = enclave_.mutex_state(id);
    if (m.owner != ts_.id) return SgxStatus::kInvalidParameter;
    m.owner = 0;
    if (!m.waiters.empty()) {
      to_wake = m.waiters.front();
      m.waiters.pop_front();
    }
  }
  work(30);  // in-enclave unlock bookkeeping
  if (to_wake != 0) {
    // The wake-up ocall — typically <10 us, i.e. dominated by the transition
    // (§2.3.2), which is exactly the SSC pattern the analyser flags.
    return sync_ocall(SyncOcall::kSetEvent, to_wake);
  }
  return SgxStatus::kSuccess;
}

SgxStatus TrustedContext::cond_wait(CondId cond, MutexId mutex) {
  {
    std::lock_guard lock(enclave_.sync_mu());
    enclave_.cond_state(cond).waiters.push_back(ts_.id);
  }
  SgxStatus st = mutex_unlock(mutex);
  if (st != SgxStatus::kSuccess) return st;
  st = sync_ocall(SyncOcall::kWaitEvent, ts_.id);
  if (st != SgxStatus::kSuccess) return st;
  return mutex_lock(mutex);
}

SgxStatus TrustedContext::cond_signal(CondId cond) {
  ThreadId to_wake = 0;
  {
    std::lock_guard lock(enclave_.sync_mu());
    auto& c = enclave_.cond_state(cond);
    if (!c.waiters.empty()) {
      to_wake = c.waiters.front();
      c.waiters.pop_front();
    }
  }
  if (to_wake != 0) return sync_ocall(SyncOcall::kSetEvent, to_wake);
  return SgxStatus::kSuccess;
}

SgxStatus TrustedContext::cond_broadcast(CondId cond) {
  std::vector<ThreadId> to_wake;
  {
    std::lock_guard lock(enclave_.sync_mu());
    auto& c = enclave_.cond_state(cond);
    to_wake.assign(c.waiters.begin(), c.waiters.end());
    c.waiters.clear();
  }
  if (!to_wake.empty()) {
    return sync_ocall(SyncOcall::kSetMultipleEvents, 0, &to_wake);
  }
  return SgxStatus::kSuccess;
}

}  // namespace sgxsim
