#include "perf/logger.hpp"

#include <atomic>
#include <map>
#include <stdexcept>

#include "telemetry/metrics.hpp"

namespace perf {

using sgxsim::CallId;
using sgxsim::EnclaveId;
using sgxsim::SgxStatus;
using sgxsim::SyncOcall;
using sgxsim::ThreadId;
using support::Nanoseconds;
using tracedb::CallIndex;
using tracedb::CallRecord;
using tracedb::CallType;
using tracedb::OcallKind;

namespace {

/// Names the SDK gives its synchronisation ocalls; registered so analyser
/// reports read like the real tool's output.
const char* sync_ocall_name(std::size_t offset) {
  switch (offset) {
    case 0: return "sgx_thread_wait_untrusted_event_ocall";
    case 1: return "sgx_thread_set_untrusted_event_ocall";
    case 2: return "sgx_thread_set_multiple_untrusted_events_ocall";
    case 3: return "sgx_thread_setwait_untrusted_events_ocall";
    default: return "sgx_thread_unknown_sync_ocall";
  }
}

OcallKind sync_kind(std::size_t offset) {
  switch (static_cast<SyncOcall>(offset)) {
    case SyncOcall::kWaitEvent: return OcallKind::kSleep;
    case SyncOcall::kSetEvent: return OcallKind::kWakeOne;
    case SyncOcall::kSetMultipleEvents: return OcallKind::kWakeMultiple;
    case SyncOcall::kSetWaitEvent: return OcallKind::kWakeOneAndSleep;
  }
  return OcallKind::kGeneric;
}

/// Distinguishes attach epochs across all Logger instances, so the
/// thread-local PerThread cache can never hand out state from a previous
/// attach (or a different logger) after a detach/re-attach cycle.
std::atomic<std::uint64_t> g_attach_counter{1};

/// Registry handles resolved once per process; the recording hot paths pay
/// only relaxed atomic adds after that.
struct LoggerMetrics {
  telemetry::Counter& events = telemetry::metrics().counter("logger.events_recorded", "events");
  telemetry::Counter& ecalls = telemetry::metrics().counter("logger.ecalls_recorded", "calls");
  telemetry::Counter& ocalls = telemetry::metrics().counter("logger.ocalls_recorded", "calls");
  telemetry::Counter& aexs = telemetry::metrics().counter("logger.aexs_recorded", "events");
  telemetry::Counter& paging = telemetry::metrics().counter("logger.paging_recorded", "events");
  telemetry::Counter& syncs = telemetry::metrics().counter("logger.syncs_recorded", "events");
  telemetry::Counter& late_drops = telemetry::metrics().counter("logger.late_drops", "events");
  telemetry::Counter& instr_ns =
      telemetry::metrics().counter("logger.instrumentation_ns", "ns");
};

LoggerMetrics& logger_metrics() {
  static LoggerMetrics m;
  return m;
}

}  // namespace

Logger::Logger(tracedb::TraceDatabase& db, LoggerConfig config) : db_(db), config_(config) {}

Logger::~Logger() {
  if (attached()) detach();
}

void Logger::attach(sgxsim::Urts& urts) {
  if (attached()) throw std::logic_error("Logger: already attached");
  urts_ = &urts;
  {
    std::lock_guard lock(mu_);
    attach_token_ = g_attach_counter.fetch_add(1, std::memory_order_relaxed);
    // Previous epoch's per-thread state (sealed shard husks included) can go
    // now: all its frames must have unwound before a re-attach.
    per_threads_.clear();
    names_registered_.clear();
  }

  sampler_.reset();
  if (config_.metric_sample_period_ns > 0) {
    sampler_ = std::make_unique<telemetry::TelemetrySampler>(
        db_, urts.clock(), telemetry::metrics(), config_.metric_sample_period_ns);
  }

  auto& hooks = urts.hooks();
  hooks.sgx_ecall = [this](EnclaveId eid, CallId id, const sgxsim::OcallTable* table, void* ms) {
    return shadow_sgx_ecall(eid, id, table, ms);
  };
  if (config_.count_aex || config_.trace_aex) {
    hooks.aep = [this](EnclaveId eid, ThreadId tid, Nanoseconds now, sgxsim::AexCause cause) {
      on_aex(eid, tid, now, cause);
    };
  }
  hooks.enclave_created = [this](const sgxsim::Enclave& e) { on_enclave_created(e); };
  hooks.enclave_destroyed = [this](EnclaveId eid, Nanoseconds now) {
    on_enclave_destroyed(eid, now);
  };
  if (config_.trace_paging) {
    urts.driver().set_trace_hooks(
        [this](EnclaveId eid, std::uint64_t page, sgxsim::PageDirection dir, Nanoseconds now) {
          on_paging(eid, page, dir, now);
        });
  }
}

void Logger::detach() {
  if (!attached()) return;
  auto& hooks = urts_->hooks();
  hooks.sgx_ecall = nullptr;
  hooks.aep = nullptr;
  hooks.enclave_created = nullptr;
  hooks.enclave_destroyed = nullptr;
  if (config_.trace_paging) urts_->driver().clear_trace_hooks();
  OcallStubRegistry::instance().reset();

  const Nanoseconds now = urts_->clock().now();
  // From here on, frames unwinding through the detached logger see
  // attached() == false and record nothing further.
  urts_ = nullptr;

  finalize_open_calls(now);
  merge_into_database();
  // A final unconditional sample closes every counter track at detach time
  // (after the merge, so tracedb's merge metrics are included).  The sampler
  // object stays alive until the next attach: a frame still unwinding
  // through the detached logger may poll it harmlessly.
  if (sampler_ != nullptr) sampler_->sample_now();
}

void Logger::flush() {
  {
    std::lock_guard lock(mu_);
    for (const auto& pt : per_threads_) {
      if (!pt->stack.empty()) {
        throw std::logic_error("Logger: flush() with traced calls in flight");
      }
    }
  }
  merge_into_database();
  db_.reopen_shards();
}

std::shared_ptr<StreamSubscription> Logger::subscribe(std::string name, std::size_t capacity) {
  return stream_.subscribe(std::move(name), capacity);
}

void Logger::merge_into_database() {
  const auto round = db_.merge_shards();
  db_.fold_call_latencies(db_.calls().size() - round.calls);
  db_.set_stream_dropped(stream_.total_dropped());
}

void Logger::finalize_open_calls(Nanoseconds now) {
  std::lock_guard lock(mu_);
  for (auto& pt : per_threads_) {
    // The AEX counter belongs to the innermost in-flight ecall; outer open
    // calls close with a count of zero, as they would on a normal return.
    bool innermost_ecall = true;
    for (auto it = pt->stack.rbegin(); it != pt->stack.rend(); ++it) {
      std::uint32_t aex = 0;
      if (it->type == CallType::kEcall && innermost_ecall) {
        aex = pt->aex_count_current_ecall;
        innermost_ecall = false;
      }
      pt->shard->finish_call(it->index, now, aex);
    }
    pt->stack.clear();
    pt->aex_count_current_ecall = 0;
  }
}

Logger::PerThread& Logger::per_thread() {
  thread_local std::uint64_t cached_token = 0;
  thread_local PerThread* cached = nullptr;
  if (cached_token == attach_token_ && cached != nullptr) return *cached;

  // Slow path: first touch of this epoch by this thread (or the thread is
  // alternating between two attached loggers).  Stale epochs' entries are
  // never looked up again — their tokens are globally unique and retired.
  thread_local std::map<std::uint64_t, PerThread*> epochs;
  const auto it = epochs.find(attach_token_);
  if (it != epochs.end()) {
    cached_token = attach_token_;
    cached = it->second;
    return *cached;
  }

  std::lock_guard lock(mu_);
  auto pt = std::make_unique<PerThread>();
  pt->shard = &db_.register_shard(urts_->current_thread_id(), urts_->current_thread_slot());
  PerThread* raw = pt.get();
  per_threads_.push_back(std::move(pt));
  epochs.emplace(attach_token_, raw);
  cached_token = attach_token_;
  cached = raw;
  return *raw;
}

CallIndex Logger::record_call(PerThread& pt, const CallRecord& rec) {
  const CallIndex idx = pt.shard->add_call(rec);
  auto& m = logger_metrics();
  if (idx == tracedb::kShardSealed) {
    m.late_drops.add();
  } else {
    m.events.add();
    (rec.type == CallType::kEcall ? m.ecalls : m.ocalls).add();
  }
  return idx;
}

void Logger::register_names(const sgxsim::Enclave& enclave) {
  {
    std::lock_guard lock(mu_);
    auto& done = names_registered_[enclave.id()];
    if (done) return;
    done = true;
  }
  const auto& spec = enclave.interface();
  for (std::size_t i = 0; i < spec.ecalls.size(); ++i) {
    db_.add_call_name({enclave.id(), CallType::kEcall, static_cast<CallId>(i),
                       spec.ecalls[i].name});
  }
  for (std::size_t i = 0; i < spec.ocalls.size(); ++i) {
    db_.add_call_name({enclave.id(), CallType::kOcall, static_cast<CallId>(i),
                       spec.ocalls[i].name});
  }
  for (std::size_t off = 0; off < sgxsim::kNumSyncOcalls; ++off) {
    db_.add_call_name({enclave.id(), CallType::kOcall,
                       static_cast<CallId>(spec.ocalls.size() + off), sync_ocall_name(off)});
  }
}

void Logger::on_enclave_created(const sgxsim::Enclave& enclave) {
  tracedb::EnclaveRecord rec;
  rec.enclave_id = enclave.id();
  rec.name = enclave.config().name;
  rec.created_ns = urts_->clock().now();
  rec.tcs_count = static_cast<std::uint32_t>(enclave.tcs_count());
  rec.size_bytes = enclave.size_bytes();
  db_.add_enclave(rec);
  register_names(enclave);
  if (stream_.has_subscribers()) {
    StreamEvent ev;
    ev.kind = StreamEvent::Kind::kEnclaveCreated;
    ev.enclave_id = enclave.id();
    ev.start_ns = rec.created_ns;
    ev.end_ns = rec.created_ns;
    stream_.publish(ev);
  }
}

void Logger::on_enclave_destroyed(EnclaveId eid, Nanoseconds now) {
  db_.set_enclave_destroyed(eid, now);
  if (stream_.has_subscribers()) {
    StreamEvent ev;
    ev.kind = StreamEvent::Kind::kEnclaveDestroyed;
    ev.enclave_id = eid;
    ev.start_ns = now;
    ev.end_ns = now;
    stream_.publish(ev);
  }
}

void Logger::ensure_enclave_registered(PerThread& pt, EnclaveId eid) {
  for (const EnclaveId seen : pt.enclaves_seen) {
    if (seen == eid) return;
  }
  // Enclaves created before attach: register lazily on first traced call.
  if (const sgxsim::Enclave* enclave = urts_->find_enclave(eid)) {
    bool need_record = false;
    {
      std::lock_guard lock(mu_);
      need_record = !names_registered_.contains(eid);
    }
    if (need_record) on_enclave_created(*enclave);
  }
  pt.enclaves_seen.push_back(eid);
}

SgxStatus Logger::shadow_sgx_ecall(EnclaveId eid, CallId id, const sgxsim::OcallTable* table,
                                   void* ms) {
  auto& clock = urts_->clock();
  const auto& cost = urts_->cost();
  const ThreadId tid = urts_->current_thread_id();
  PerThread& pt = per_thread();
  const std::uint64_t epoch = attach_token_;

  ensure_enclave_registered(pt, eid);

  // Record entry: timestamp, thread, ids, direct parent (the enclosing ocall,
  // if this ecall was issued from one).
  clock.advance(cost.logger_ecall_pre_ns);
  logger_metrics().instr_ns.add(cost.logger_ecall_pre_ns);
  CallRecord rec;
  rec.type = CallType::kEcall;
  rec.thread_id = tid;
  rec.enclave_id = eid;
  rec.call_id = id;
  StackEntry parent_entry;
  bool has_parent = false;
  if (!pt.stack.empty() && pt.stack.back().type == CallType::kOcall) {
    parent_entry = pt.stack.back();
    has_parent = true;
    rec.parent = parent_entry.index;
  }
  rec.start_ns = clock.now();
  const CallIndex idx = record_call(pt, rec);
  pt.stack.push_back({idx, CallType::kEcall, id, rec.start_ns});
  const std::uint32_t saved_aex = pt.aex_count_current_ecall;
  pt.aex_count_current_ecall = 0;
  if (sampler_ != nullptr) sampler_->poll();

  // Swap in the shadow ocall table — always, "as we cannot know beforehand"
  // whether the ecall performs ocalls (§4.1.2) — and chain to the URTS.
  const sgxsim::OcallTable* shadow =
      table != nullptr ? OcallStubRegistry::instance().shadow_table(*this, eid, table) : nullptr;
  const SgxStatus ret = urts_->real_sgx_ecall(eid, id, shadow, ms);

  // Record exit — unless the logger was detached while this call was in
  // flight, in which case detach() already finalized the record.
  if (attached() && attach_token_ == epoch) {
    clock.advance(cost.logger_ecall_post_ns);
    logger_metrics().instr_ns.add(cost.logger_ecall_post_ns);
    const Nanoseconds end_ns = clock.now();
    pt.shard->finish_call(idx, end_ns, pt.aex_count_current_ecall);
    if (stream_.has_subscribers()) {
      StreamEvent ev;
      ev.kind = StreamEvent::Kind::kCall;
      ev.call_type = CallType::kEcall;
      ev.thread_id = tid;
      ev.enclave_id = eid;
      ev.call_id = id;
      ev.aex_count = pt.aex_count_current_ecall;
      ev.start_ns = rec.start_ns;
      ev.end_ns = end_ns;
      if (has_parent) {
        ev.parent_valid = true;
        ev.parent_type = parent_entry.type;
        ev.parent_call_id = parent_entry.call_id;
        ev.parent_start_ns = parent_entry.start_ns;
      }
      stream_.publish(ev);
    }
    pt.stack.pop_back();
    pt.aex_count_current_ecall = saved_aex;
    if (sampler_ != nullptr) sampler_->poll();
  }
  return ret;
}

SgxStatus Logger::on_stub_call(const OcallStubRegistry::StubInfo& info, void* ms) {
  auto& clock = urts_->clock();
  const auto& cost = urts_->cost();
  const ThreadId tid = urts_->current_thread_id();
  PerThread& pt = per_thread();
  const std::uint64_t epoch = attach_token_;

  clock.advance(cost.logger_ocall_pre_ns);
  logger_metrics().instr_ns.add(cost.logger_ocall_pre_ns);
  CallRecord rec;
  rec.type = CallType::kOcall;
  rec.thread_id = tid;
  rec.enclave_id = info.enclave_id;
  rec.call_id = info.ocall_id;
  StackEntry parent_entry;
  bool has_parent = false;
  if (!pt.stack.empty() && pt.stack.back().type == CallType::kEcall) {
    parent_entry = pt.stack.back();
    has_parent = true;
    rec.parent = parent_entry.index;
  }
  rec.start_ns = clock.now();

  const CallIndex idx = record_call(pt, rec);
  pt.stack.push_back({idx, CallType::kOcall, info.ocall_id, rec.start_ns});

  // Synchronisation ocalls reduce to sleep / wake-up events (§4.1.3); the
  // marshalling struct layout is SDK-public, so the logger can read the
  // wake-up targets to track cross-thread dependencies.
  if (info.is_sync) {
    const auto* s = static_cast<const sgxsim::SyncOcallMs*>(ms);
    const std::size_t offset = info.sync_offset;
    pt.shard->set_call_kind(idx, sync_kind(offset));
    tracedb::SyncRecord sync;
    sync.enclave_id = info.enclave_id;
    sync.timestamp_ns = clock.now();
    auto record_sync = [&](const tracedb::SyncRecord& r) {
      pt.shard->add_sync(r);
      logger_metrics().syncs.add();
      logger_metrics().events.add();
    };
    switch (static_cast<SyncOcall>(offset)) {
      case SyncOcall::kWaitEvent:
        sync.kind = tracedb::SyncKind::kSleep;
        sync.thread_id = tid;
        record_sync(sync);
        break;
      case SyncOcall::kSetEvent:
        sync.kind = tracedb::SyncKind::kWakeup;
        sync.thread_id = tid;
        sync.target_thread_id = s->target;
        record_sync(sync);
        break;
      case SyncOcall::kSetMultipleEvents:
        if (s->targets != nullptr) {
          for (ThreadId t : *s->targets) {
            sync.kind = tracedb::SyncKind::kWakeup;
            sync.thread_id = tid;
            sync.target_thread_id = t;
            record_sync(sync);
          }
        }
        break;
      case SyncOcall::kSetWaitEvent: {
        sync.kind = tracedb::SyncKind::kWakeup;
        sync.thread_id = tid;
        sync.target_thread_id = s->target;
        record_sync(sync);
        tracedb::SyncRecord sleep = sync;
        sleep.kind = tracedb::SyncKind::kSleep;
        sleep.target_thread_id = 0;
        record_sync(sleep);
        break;
      }
    }
  }

  if (sampler_ != nullptr) sampler_->poll();
  const SgxStatus ret = info.original(ms);

  if (attached() && attach_token_ == epoch) {
    clock.advance(cost.logger_ocall_post_ns);
    logger_metrics().instr_ns.add(cost.logger_ocall_post_ns);
    const Nanoseconds end_ns = clock.now();
    pt.shard->finish_call(idx, end_ns, 0);
    if (stream_.has_subscribers()) {
      StreamEvent ev;
      ev.kind = StreamEvent::Kind::kCall;
      ev.call_type = CallType::kOcall;
      ev.ocall_kind = info.is_sync ? sync_kind(info.sync_offset) : tracedb::OcallKind::kGeneric;
      ev.thread_id = tid;
      ev.enclave_id = info.enclave_id;
      ev.call_id = info.ocall_id;
      ev.start_ns = rec.start_ns;
      ev.end_ns = end_ns;
      if (has_parent) {
        ev.parent_valid = true;
        ev.parent_type = parent_entry.type;
        ev.parent_call_id = parent_entry.call_id;
        ev.parent_start_ns = parent_entry.start_ns;
      }
      stream_.publish(ev);
    }
    pt.stack.pop_back();
    if (sampler_ != nullptr) sampler_->poll();
  }
  return ret;
}

void Logger::on_aex(EnclaveId eid, ThreadId tid, Nanoseconds now, sgxsim::AexCause cause) {
  auto& clock = urts_->clock();
  const auto& cost = urts_->cost();
  // AEXs are delivered on the thread that was executing in-enclave, so this
  // thread's own recording state is the right one.
  PerThread& pt = per_thread();
  ++pt.aex_count_current_ecall;
  if (stream_.has_subscribers()) {
    StreamEvent ev;
    ev.kind = StreamEvent::Kind::kAex;
    ev.thread_id = tid;
    ev.enclave_id = eid;
    ev.start_ns = now;
    ev.end_ns = now;
    stream_.publish(ev);
  }
  if (config_.trace_aex) {
    clock.advance(cost.logger_aex_trace_ns);
    logger_metrics().instr_ns.add(cost.logger_aex_trace_ns);
    tracedb::AexRecord rec;
    rec.thread_id = tid;
    rec.enclave_id = eid;
    rec.timestamp_ns = now;
    // §4.1.4: only SGX v2 records the exit type, and the logger may read it
    // only from debug enclaves; everywhere else the cause stays unknown.
    if (urts_->sgx_version() >= 2) {
      const sgxsim::Enclave* enclave = urts_->find_enclave(eid);
      if (enclave != nullptr && enclave->config().debug) {
        rec.cause = cause == sgxsim::AexCause::kPageFault ? tracedb::AexCause::kPageFault
                                                          : tracedb::AexCause::kInterrupt;
      }
    }
    // Attribute to the innermost in-flight ecall of this thread.
    for (auto it = pt.stack.rbegin(); it != pt.stack.rend(); ++it) {
      if (it->type == CallType::kEcall) {
        rec.during_call = it->index;
        break;
      }
    }
    pt.shard->add_aex(rec);
    logger_metrics().aexs.add();
    logger_metrics().events.add();
  } else {
    clock.advance(cost.logger_aex_count_ns);
    logger_metrics().instr_ns.add(cost.logger_aex_count_ns);
  }
}

void Logger::on_paging(EnclaveId eid, std::uint64_t page, sgxsim::PageDirection dir,
                       Nanoseconds now) {
  tracedb::PagingRecord rec;
  rec.enclave_id = eid;
  rec.page_number = page;
  rec.direction = dir == sgxsim::PageDirection::kIn ? tracedb::PageDirection::kPageIn
                                                    : tracedb::PageDirection::kPageOut;
  rec.timestamp_ns = now;
  per_thread().shard->add_paging(rec);
  if (stream_.has_subscribers()) {
    StreamEvent ev;
    ev.kind = StreamEvent::Kind::kPaging;
    ev.enclave_id = eid;
    // Paging events carry no call id; the field holds the direction.
    ev.call_id = dir == sgxsim::PageDirection::kIn ? 0 : 1;
    ev.start_ns = now;
    ev.end_ns = now;
    stream_.publish(ev);
  }
  logger_metrics().paging.add();
  logger_metrics().events.add();
}

}  // namespace perf
