// E13 — online analyser verdicts on a synthetic stream.
//
// `sgxperf monitor` runs OnlineAnalyzer::feed() on the consumer side of the
// streaming subscription while the workload is live.  Feeds a pre-built
// synthetic stream (ecalls with nested short ocalls, the shape that
// exercises every detector's hot path: Eq. 1 counting, Eq. 2 start/end
// correlation, Eq. 3 same-key gaps, windowed HDR recording) and reports what
// the detectors concluded, with and without the interface-orderliness
// checker.  The feed's wall-clock cost is wallbench's
// `perf.online.feed_ns_per_event`.
#include <cstdio>
#include <vector>

#include "bench_json.hpp"
#include "perf/online.hpp"
#include "perf/orderliness.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_flag(argc, argv);
  bench::JsonReport json("online", smoke);
  const std::size_t kEvents = smoke ? 200'000 : 2'000'000;

  std::vector<perf::StreamEvent> events;
  events.reserve(kEvents + 1);
  support::Rng rng(11);
  std::uint64_t t = 0;
  while (events.size() < kEvents) {
    const auto call_id = static_cast<std::uint32_t>(rng.next_below(8));
    const std::uint64_t e_start = t;
    const std::uint64_t o_start = e_start + 1'000;
    const std::uint64_t o_end = o_start + 600 + rng.next_below(400);
    const std::uint64_t e_end = o_end + 2'000 + rng.next_below(4'000);

    // Children publish before their parent (stream order on one thread).
    perf::StreamEvent oc;
    oc.kind = perf::StreamEvent::Kind::kCall;
    oc.call_type = tracedb::CallType::kOcall;
    oc.thread_id = 1;
    oc.enclave_id = 1;
    oc.call_id = call_id;
    oc.start_ns = o_start;
    oc.end_ns = o_end;
    oc.parent_valid = true;
    oc.parent_type = tracedb::CallType::kEcall;
    oc.parent_call_id = call_id;
    oc.parent_start_ns = e_start;
    events.push_back(oc);

    perf::StreamEvent ec;
    ec.kind = perf::StreamEvent::Kind::kCall;
    ec.call_type = tracedb::CallType::kEcall;
    ec.thread_id = 1;
    ec.enclave_id = 1;
    ec.call_id = call_id;
    ec.start_ns = e_start;
    ec.end_ns = e_end;
    ec.aex_count = rng.chance(1.0 / 64.0) ? 1 : 0;
    events.push_back(ec);

    t = e_end + rng.next_below(3'000);
  }

  perf::OnlineAnalyzer online;
  online.feed(events);
  online.finish(t);

  // Second leg: the same stream with the interface-orderliness checker armed
  // on a worst-case-dense model (every id an entry, all 64 edges legal), so
  // every ecall takes the full known/entry/edge lookup path and no violation
  // short-circuits it.
  perf::OnlineConfig checked_config;
  auto& em = checked_config.order.enclaves[1];
  for (std::uint32_t a = 0; a < 8; ++a) {
    em.known.insert(a);
    em.entries.insert(a);
    for (std::uint32_t b = 0; b < 8; ++b) em.edges.emplace(a, b);
  }
  perf::OnlineAnalyzer checked(checked_config);
  checked.feed(events);
  checked.finish(t);

  std::size_t order_alerts = 0;
  for (const auto& a : checked.active_alerts()) {
    if (a.kind >= tracedb::AlertKind::kOutOfOrderEcall) ++order_alerts;
  }

  std::printf("=== E13: online analyser verdicts ===\n\n");
  std::printf("events fed:       %zu (%.3f virtual s)\n", events.size(),
              static_cast<double>(t) / 1e9);
  std::printf("windows closed:   %zu\n", online.windows().size());
  std::printf("alerts recorded:  %zu (%zu active at end)\n", online.alerts().size(),
              online.active_alerts().size());
  std::printf("with order check: %zu orderliness alerts\n", order_alerts);

  json.metric("windows", static_cast<double>(online.windows().size()), "windows");
  json.metric("alerts", static_cast<double>(online.alerts().size()), "alerts");
  json.metric("order_alerts", static_cast<double>(order_alerts), "alerts");
  return json.write() ? 0 : 1;
}
