// The trace database's handles into the process-wide telemetry registry.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "telemetry/metrics.hpp"

namespace tracedb {

/// Resolved once per process, all together, so a trace sampled after its
/// first merge lists the store's timers too; after that the merge, store
/// and shard-registration paths pay only relaxed atomic adds.  Each timer
/// is two clock reads around its stage.
struct DbMetrics {
  static std::vector<std::uint64_t> stage_ns_buckets() {
    return {10'000, 100'000, 1'000'000, 10'000'000, 100'000'000};
  }

  telemetry::Counter& shards_registered =
      telemetry::metrics().counter("tracedb.shards_registered", "shards");
  telemetry::Counter& shard_seals = telemetry::metrics().counter("tracedb.shard_seals", "shards");
  telemetry::Counter& merges = telemetry::metrics().counter("tracedb.merges", "merges");
  telemetry::Counter& merge_records =
      telemetry::metrics().counter("tracedb.merge_records", "records");
  telemetry::Counter& events_dropped =
      telemetry::metrics().counter("tracedb.events_dropped", "events");
  telemetry::Histogram& merge_ns =
      telemetry::metrics().histogram("tracedb.merge_ns", stage_ns_buckets(), "ns");
  /// StoreWriter::add_events: framing and encoding one batch of event rows.
  telemetry::Histogram& store_encode_ns =
      telemetry::metrics().histogram("tracedb.store.encode_ns", stage_ns_buckets(), "ns");
  /// StoreWriter::commit: the summary sections, the events file and the
  /// index, each written, fsync'd and renamed into place.
  telemetry::Histogram& store_commit_ns =
      telemetry::metrics().histogram("tracedb.store.commit_ns", stage_ns_buckets(), "ns");
};

DbMetrics& db_metrics();

/// Steady-clock nanoseconds since `start`: what the timers above observe.
inline std::uint64_t ns_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

}  // namespace tracedb
