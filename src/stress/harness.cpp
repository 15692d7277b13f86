#include "stress/harness.hpp"

#include <atomic>
#include <stdexcept>
#include <thread>

#include "perf/logger.hpp"

namespace stress {

SoakResult run_soak(Stressor& stressor, sgxsim::Urts& urts,
                    tracedb::TraceDatabase& db, const SoakConfig& config) {
  perf::Logger logger(db);
  logger.attach(urts);
  perf::MonitorSessionConfig session_config;
  session_config.subscription_name = "stress-soak";
  session_config.subscription_capacity = config.subscription_capacity;
  session_config.online.analyzer = config.analyzer;
  if (config.window_ns > 0) session_config.online.window_ns = config.window_ns;
  perf::MonitorSession session(logger, session_config);
  if (!session.ok()) {
    throw std::runtime_error("stress: no free stream subscriber slot");
  }

  // The stressor's orderliness model is keyed by enclave ids that only exist
  // after prepare(), but prepare() must stay on the workload thread (thread
  // registration order pins the merged trace).  Handshake: the workload
  // thread prepares and parks; this thread hands the model to the session,
  // which subscribed first so the lifecycle events are queued, and releases
  // the workers.
  SoakResult out;
  std::atomic<int> stage{0};  // 0 = preparing, 1 = prepared, 2 = released
  std::atomic<bool> workload_done{false};
  std::thread workload([&] {
    stressor.prepare(urts, config.stress);
    stage.store(1, std::memory_order_release);
    while (stage.load(std::memory_order_acquire) < 2) std::this_thread::yield();
    out.stress = run_stressor(stressor, urts, config.stress, /*already_prepared=*/true);
    workload_done.store(true, std::memory_order_release);
  });
  while (stage.load(std::memory_order_acquire) < 1) std::this_thread::yield();
  session.set_order_model(config.order ? *config.order : stressor.order_model());
  stage.store(2, std::memory_order_release);

  session.pump(workload_done, /*interval_ms=*/0);
  workload.join();
  logger.detach();
  session.finish();
  session.persist();

  out.session = session.stats();
  out.windows = session.analyzer().windows().size();
  out.active_alerts = session.analyzer().active_alerts();
  for (const auto& alert : out.active_alerts) {
    if (alert.kind != tracedb::AlertKind::kLatencyShift) out.triggered.insert(alert.kind);
  }

  const auto& spec = stressor.spec();
  for (const auto kind : spec.must_trigger) {
    if (out.triggered.count(kind) == 0) out.missing.insert(kind);
  }
  for (const auto kind : spec.must_not) {
    if (out.triggered.count(kind) != 0) out.false_positives.insert(kind);
  }
  return out;
}

}  // namespace stress
