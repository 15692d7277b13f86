// The `sgxperf serve` daemon: UNIX-domain socket front-end of the fleet
// Aggregator.
//
// Two listening sockets:
//
//   ingest  — producers connect and stream wire frames (fleet/wire.hpp);
//             one connection == one producer stream.  EOF without a bye
//             frame marks the producer lossy, its partial data stays merged.
//   query   — request/response: the client sends one text line ("snapshot",
//             "top <by> <n>", "alerts", "series <host> <enclave> <site>",
//             "status"), the server replies with one JSON document and
//             closes.  "status" is answered by the server itself so the
//             response carries daemon self-telemetry (uptime, ingest rate,
//             query-latency HDR, checkpoint durations) on top of the
//             aggregator's producer-lag and conservation-ledger view.
//
// Single-threaded poll(2) loop — the aggregator's mutex makes concurrent
// checkpoint/query access from other threads safe, but the socket plumbing
// itself never needs more than one thread (windows arrive at window
// cadence, not event cadence).  Query responses drain non-blocking via
// POLLOUT with a stall deadline, so a client that stops reading can never
// wedge ingest; all socket writes use MSG_NOSIGNAL, so a vanished peer is
// an EPIPE, never a fatal SIGPIPE.  stop() is async-signal-safe via a
// self-pipe so a SIGINT handler can end run() cleanly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/aggregator.hpp"

namespace fleet {

struct ServerConfig {
  std::string ingest_path;           // required
  std::string query_path;            // optional: no query socket when empty
  AggregatorConfig aggregator;
  /// Persist the fleet series as a v5 trace every N merged producer windows
  /// (0 = only at shutdown) — `sgxperf stats`/`export` work on the file.
  std::string checkpoint_path;
  std::uint64_t checkpoint_every_windows = 0;
  /// Exit run() after this long with no connected producer and no pending
  /// byte (0 = run until stop()).  Tests and one-shot pipelines use this.
  std::uint64_t idle_exit_ms = 0;
  /// Write a Prometheus text snapshot (fleet ledger + daemon self-metrics)
  /// to this path at checkpoint cadence and shutdown (empty = off).  Written
  /// atomically (temp + rename) so a scraper never sees a torn file.
  std::string prom_out_path;
  /// Emit a one-line self-stat JSON document (the `status` payload) to
  /// stderr every this many milliseconds (0 = off).  Diagnostics only —
  /// wall-clock derived, never golden-tested.
  std::uint64_t self_stat_interval_ms = 0;
};

class Server {
 public:
  /// Longest query request line read before the client gets an error and is
  /// closed; a `series` line names a host and an enclave of at most 65,535
  /// bytes each, far below it.
  static constexpr std::size_t kMaxRequestBytes = 256 * 1024;

  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens on the configured sockets (unlinking stale paths).
  /// Returns false (with a message on stderr) on any socket error.
  [[nodiscard]] bool start();

  /// Serves until stop() or idle-exit.  Writes a final checkpoint if one is
  /// configured.  Returns the number of producer streams served.
  std::uint64_t run();

  /// Ends run() from any thread or from a signal handler.
  void stop() noexcept;

  [[nodiscard]] Aggregator& aggregator() noexcept { return agg_; }

  /// Point-in-time self-telemetry (uptime, ingest totals, query-latency
  /// HDR, checkpoint durations) — what the `status` query's "daemon" block
  /// carries.  Call it on the thread that runs run(): it reads the
  /// connection table and the query-latency HDR, which only that thread
  /// writes.
  [[nodiscard]] ServeSelfStats self_stats() const;

 private:
  struct Connection {
    int fd = -1;
    bool is_query = false;
    ProducerId producer = 0;   // ingest connections
    std::string request;       // query connections: accumulated request line
    std::string response;      // query connections: undrained response bytes
    std::size_t response_off = 0;
    /// Last time response bytes moved — a client that stops reading is
    /// closed after a stall deadline instead of wedging the poll loop.
    std::chrono::steady_clock::time_point last_progress{};
  };

  void close_connection(Connection& conn);
  bool drain_response(Connection& conn);
  void maybe_checkpoint(bool force);
  /// Computes one query response, timing it into the latency HDR and
  /// intercepting "status" to attach the daemon block.
  [[nodiscard]] std::string answer_query(const std::string& request);
  void write_prom_out();
  void maybe_self_stat();

  ServerConfig config_;
  Aggregator agg_;
  int ingest_fd_ = -1;
  int query_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> stop_{false};
  std::vector<Connection> conns_;
  std::uint64_t producers_served_ = 0;
  std::uint64_t last_checkpoint_windows_ = 0;

  // --- self-telemetry (DESIGN.md §13) ---------------------------------------
  std::chrono::steady_clock::time_point started_ = std::chrono::steady_clock::now();
  std::chrono::steady_clock::time_point next_self_stat_{};
  std::atomic<std::uint64_t> bytes_ingested_{0};
  std::atomic<std::uint64_t> queries_answered_{0};
  std::atomic<std::uint64_t> checkpoints_{0};
  std::atomic<std::uint64_t> checkpoint_last_ms_{0};
  std::atomic<std::uint64_t> checkpoint_total_ms_{0};
  /// Query latencies, recorded by answer_query() on the poll loop.
  telemetry::HdrSnapshot query_latency_us_;
};

/// Connects to a serve query socket, sends one request line and returns the
/// JSON response.  Throws std::runtime_error on connection failure.
[[nodiscard]] std::string query_server(const std::string& query_path, const std::string& request);

/// Connects to a serve ingest socket and streams `bytes` as one producer.
/// Returns false on connection/write failure.
[[nodiscard]] bool send_producer_stream(const std::string& ingest_path, const std::string& bytes);

/// Connects to a serve ingest socket and returns the fd (-1 on failure) —
/// for live streaming (`sgxperf monitor --fleet`).
[[nodiscard]] int connect_ingest(const std::string& ingest_path);

}  // namespace fleet
