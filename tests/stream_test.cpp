// The streaming subscription layer: Vyukov ring semantics (FIFO, bounded,
// drop-on-full with accounting), hub slot management, and the end-to-end
// logger integration (live events while recording is in flight).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <set>
#include <thread>
#include <vector>

#include "perf/logger.hpp"
#include "perf/stream.hpp"
#include "sgxsim/runtime.hpp"
#include "telemetry/metrics.hpp"
#include "tests/sim_helpers.hpp"

namespace {

using perf::StreamEvent;
using perf::StreamHub;
using perf::StreamSubscription;

StreamEvent call_event(std::uint64_t start, std::uint64_t end) {
  StreamEvent ev;
  ev.kind = StreamEvent::Kind::kCall;
  ev.start_ns = start;
  ev.end_ns = end;
  return ev;
}

TEST(StreamSubscription, DeliversInFifoOrder) {
  StreamHub hub;
  auto sub = hub.subscribe("fifo", 64);
  ASSERT_NE(sub, nullptr);
  for (std::uint64_t i = 0; i < 10; ++i) hub.publish(call_event(i, i + 1));

  std::vector<StreamEvent> out;
  EXPECT_EQ(sub->poll(out), 10u);
  ASSERT_EQ(out.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(out[i].start_ns, i);
  EXPECT_EQ(sub->delivered(), 10u);
  EXPECT_EQ(sub->dropped(), 0u);
}

TEST(StreamSubscription, FullRingDropsAndCounts) {
  StreamHub hub;
  auto sub = hub.subscribe("tiny", 8);  // minimum capacity
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->capacity(), 8u);
  const std::uint64_t before =
      telemetry::metrics().counter("logger.stream.tiny.dropped", "events").value();

  for (std::uint64_t i = 0; i < 20; ++i) hub.publish(call_event(i, i));
  EXPECT_EQ(sub->dropped(), 12u);
  EXPECT_EQ(hub.total_dropped(), 12u);
  // Drops are mirrored into the metrics registry, per subscriber name.
  EXPECT_EQ(telemetry::metrics().counter("logger.stream.tiny.dropped", "events").value(),
            before + 12);

  // The 8 oldest events are still there, in order.
  std::vector<StreamEvent> out;
  EXPECT_EQ(sub->poll(out), 8u);
  EXPECT_EQ(out.front().start_ns, 0u);
  EXPECT_EQ(out.back().start_ns, 7u);

  // Space freed: publishing works again.
  hub.publish(call_event(99, 99));
  out.clear();
  ASSERT_EQ(sub->poll(out), 1u);
  EXPECT_EQ(out[0].start_ns, 99u);
}

TEST(StreamSubscription, PollRespectsMaxBatch) {
  StreamHub hub;
  auto sub = hub.subscribe("batch", 64);
  ASSERT_NE(sub, nullptr);
  for (std::uint64_t i = 0; i < 50; ++i) hub.publish(call_event(i, i));
  std::vector<StreamEvent> out;
  EXPECT_EQ(sub->poll(out, 16), 16u);
  EXPECT_EQ(sub->poll(out, 16), 16u);
  EXPECT_EQ(sub->poll(out, 100), 18u);
  EXPECT_EQ(out.size(), 50u);
}

TEST(StreamSubscription, CloseStopsDeliveryButDrainsBacklog) {
  StreamHub hub;
  auto sub = hub.subscribe("closer", 64);
  ASSERT_NE(sub, nullptr);
  hub.publish(call_event(1, 2));
  sub->close();
  EXPECT_FALSE(sub->active());
  EXPECT_FALSE(hub.has_subscribers());
  hub.publish(call_event(3, 4));  // skipped: nobody active

  std::vector<StreamEvent> out;
  EXPECT_EQ(sub->poll(out), 1u);  // the pre-close event survives
  EXPECT_EQ(out[0].start_ns, 1u);
  sub->close();  // idempotent
  EXPECT_FALSE(hub.has_subscribers());
}

TEST(StreamHub, SlotExhaustionAndReuse) {
  StreamHub hub;
  std::vector<std::shared_ptr<StreamSubscription>> subs;
  for (std::size_t i = 0; i < StreamHub::kMaxSubscribers; ++i) {
    auto s = hub.subscribe("s", 8);
    ASSERT_NE(s, nullptr) << "slot " << i;
    subs.push_back(std::move(s));
  }
  EXPECT_EQ(hub.subscribe("overflow", 8), nullptr);

  // Closing one frees its slot for a newcomer; the old object stays valid.
  subs[3]->close();
  auto replacement = hub.subscribe("replacement", 8);
  ASSERT_NE(replacement, nullptr);
  EXPECT_TRUE(replacement->active());
  EXPECT_FALSE(subs[3]->active());
}

TEST(StreamHub, PublishWithNoSubscribersIsANoOp) {
  StreamHub hub;
  EXPECT_FALSE(hub.has_subscribers());
  hub.publish(call_event(1, 2));  // must not crash or leak
  EXPECT_EQ(hub.total_dropped(), 0u);
}

// Concurrency: N producers publish while one consumer drains and subscribers
// come and go.  Every event must be either delivered or counted as dropped —
// never lost, never duplicated (checked via per-producer sequence sets).
TEST(StreamConcurrency, DeliveredPlusDroppedEqualsPublished) {
  StreamHub hub;
  auto sub = hub.subscribe("load", 1 << 10);
  ASSERT_NE(sub, nullptr);

  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20'000;
  std::atomic<bool> stop{false};
  std::vector<StreamEvent> seen;
  seen.reserve(kProducers * kPerProducer);

  std::thread consumer([&] {
    std::vector<StreamEvent> batch;
    while (!stop.load(std::memory_order_acquire)) {
      batch.clear();
      if (sub->poll(batch) == 0) std::this_thread::yield();
      seen.insert(seen.end(), batch.begin(), batch.end());
    }
    batch.clear();
    while (sub->poll(batch) > 0) {
      seen.insert(seen.end(), batch.begin(), batch.end());
      batch.clear();
    }
  });

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&hub, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        StreamEvent ev = call_event(i, i + 1);
        ev.thread_id = static_cast<std::uint32_t>(p);
        hub.publish(ev);
      }
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(seen.size() + sub->dropped(),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  // No duplicates: each (producer, seq) pair at most once.
  std::set<std::pair<std::uint32_t, std::uint64_t>> unique;
  for (const auto& ev : seen) unique.emplace(ev.thread_id, ev.start_ns);
  EXPECT_EQ(unique.size(), seen.size());
  // Per-producer FIFO: a single consumer sees each producer's events in
  // strictly increasing sequence (drops leave gaps, never reorderings).
  std::vector<std::int64_t> last(kProducers, -1);
  for (const auto& ev : seen) {
    const auto seq = static_cast<std::int64_t>(ev.start_ns);
    EXPECT_GT(seq, last[ev.thread_id]) << "producer " << ev.thread_id;
    last[ev.thread_id] = seq;
  }
  EXPECT_EQ(sub->published(), sub->delivered() + sub->dropped());
}

// poll() claims a run of cells at once; a run that crosses the end of the
// cell array must come out whole and in order, and free every cell it read.
TEST(StreamSubscription, RunAcrossTheRingEndIsClaimedWhole) {
  StreamHub hub;
  auto sub = hub.subscribe("wrap", 8);
  ASSERT_NE(sub, nullptr);
  std::vector<StreamEvent> out;
  for (std::uint64_t i = 0; i < 5; ++i) hub.publish(call_event(i, i));
  ASSERT_EQ(sub->poll(out), 5u);  // head now at cell 5

  // Cells 5, 6, 7, 0, 1, 2, 3, 4: one run that wraps after three.
  out.clear();
  for (std::uint64_t i = 5; i < 13; ++i) hub.publish(call_event(i, i));
  EXPECT_EQ(sub->dropped(), 0u);
  ASSERT_EQ(sub->poll(out), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(out[i].start_ns, i + 5);

  // Every cell was released: a full ring's worth fits again, then drops.
  out.clear();
  for (std::uint64_t i = 13; i < 22; ++i) hub.publish(call_event(i, i));
  EXPECT_EQ(sub->dropped(), 1u);
  ASSERT_EQ(sub->poll(out, 3), 3u);  // a capped run ending mid-ring
  ASSERT_EQ(sub->poll(out), 5u);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(out[i].start_ns, i + 13);
  EXPECT_EQ(sub->poll(out), 0u);
  EXPECT_EQ(sub->published(), 22u);
  EXPECT_EQ(sub->published(), sub->delivered() + sub->dropped());
}

// poll() is safe from any thread: two consumers draining one ring against
// four producers deliver every accepted event exactly once between them.
TEST(StreamConcurrency, TwoConsumersDeliverEachEventOnce) {
  StreamHub hub;
  auto sub = hub.subscribe("pair", 1 << 8);
  ASSERT_NE(sub, nullptr);

  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20'000;
  std::atomic<bool> stop{false};
  std::vector<StreamEvent> seen[2];

  const auto drain = [&](std::vector<StreamEvent>& mine) {
    std::vector<StreamEvent> batch;
    for (;;) {
      const bool last = stop.load(std::memory_order_acquire);
      batch.clear();
      // Small batches keep both consumers racing for the same cells.
      if (sub->poll(batch, 64) == 0) {
        if (last) return;
        std::this_thread::yield();
      }
      mine.insert(mine.end(), batch.begin(), batch.end());
    }
  };
  std::thread c0(drain, std::ref(seen[0]));
  std::thread c1(drain, std::ref(seen[1]));

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&hub, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        StreamEvent ev = call_event(i, i + 1);
        ev.thread_id = static_cast<std::uint32_t>(p);
        hub.publish(ev);
      }
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_release);
  c0.join();
  c1.join();

  std::set<std::pair<std::uint32_t, std::uint64_t>> unique;
  for (const auto& part : seen) {
    for (const auto& ev : part) {
      EXPECT_TRUE(unique.emplace(ev.thread_id, ev.start_ns).second)
          << "producer " << ev.thread_id << " event " << ev.start_ns << " delivered twice";
    }
  }
  EXPECT_EQ(unique.size(), seen[0].size() + seen[1].size());
  EXPECT_EQ(sub->delivered(), unique.size());
  EXPECT_EQ(sub->published(), static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(sub->published(), sub->delivered() + sub->dropped());
}

// End-to-end: a subscriber on a recording logger sees the workload's calls,
// AEXs included, while the logger is still attached.
TEST(StreamLogger, SubscriberSeesLiveEvents) {
  using namespace sgxsim;
  Urts urts;
  tracedb::TraceDatabase db;
  perf::Logger logger(db);
  logger.attach(urts);

  auto sub = logger.subscribe("live", 1 << 10);
  ASSERT_NE(sub, nullptr);

  constexpr const char* kEdl = R"(
    enclave {
      trusted { public int ecall_ping(void); };
      untrusted { void ocall_pong(void); };
    };
  )";
  const EnclaveId eid = test_helpers::make_enclave(urts, kEdl);
  urts.enclave(eid).register_ecall("ecall_ping", [](TrustedContext& ctx, void*) {
    ctx.work(100);
    return ctx.ocall(0, nullptr);
  });
  OcallTable table = make_ocall_table({&test_helpers::empty_ocall});
  for (int i = 0; i < 25; ++i) urts.sgx_ecall(eid, 0, &table, nullptr);

  // Still attached: the stream already carries everything.
  std::vector<StreamEvent> out;
  while (sub->poll(out) > 0) {
  }
  std::size_t ecalls = 0;
  std::size_t ocalls = 0;
  for (const auto& ev : out) {
    if (ev.kind != StreamEvent::Kind::kCall) continue;
    ASSERT_GE(ev.end_ns, ev.start_ns);
    if (ev.call_type == tracedb::CallType::kEcall) {
      ++ecalls;
    } else {
      ++ocalls;
    }
  }
  EXPECT_EQ(ecalls, 25u);
  EXPECT_EQ(ocalls, 25u);
  EXPECT_EQ(sub->dropped(), 0u);

  logger.detach();
  EXPECT_EQ(db.stream_dropped(), 0u);
  EXPECT_EQ(db.calls().size(), 50u);
}

}  // namespace
