#include "fleet/server.hpp"

#include "support/strutil.hpp"
#include "telemetry/prometheus.hpp"
#include "tracedb/open.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace fleet {
namespace {

/// Binds a listening UNIX-domain socket at `path`, unlinking any stale one.
int listen_unix(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    std::fprintf(stderr, "fleet: socket path too long: %s\n", path.c_str());
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "fleet: socket: %s\n", std::strerror(errno));
    return -1;
  }
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    std::fprintf(stderr, "fleet: bind/listen %s: %s\n", path.c_str(), std::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_unix(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Blocking full write to a socket.  MSG_NOSIGNAL: a peer that disconnects
/// mid-write must surface as EPIPE, not as a process-killing SIGPIPE.
bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// A query client that accepts a response slower than this is presumed stuck
/// and dropped (its fd would otherwise be held until daemon shutdown).
constexpr std::chrono::milliseconds kResponseStall{5000};

}  // namespace

Server::Server(ServerConfig config) : config_(std::move(config)), agg_(config_.aggregator) {}

Server::~Server() {
  for (auto& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (ingest_fd_ >= 0) {
    ::close(ingest_fd_);
    ::unlink(config_.ingest_path.c_str());
  }
  if (query_fd_ >= 0) {
    ::close(query_fd_);
    ::unlink(config_.query_path.c_str());
  }
  for (const int fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

bool Server::start() {
  if (config_.ingest_path.empty()) {
    std::fprintf(stderr, "fleet: no ingest socket path configured\n");
    return false;
  }
  ingest_fd_ = listen_unix(config_.ingest_path);
  if (ingest_fd_ < 0) return false;
  if (!config_.query_path.empty()) {
    query_fd_ = listen_unix(config_.query_path);
    if (query_fd_ < 0) return false;
  }
  if (::pipe(wake_pipe_) != 0) {
    std::fprintf(stderr, "fleet: pipe: %s\n", std::strerror(errno));
    return false;
  }
  return true;
}

void Server::stop() noexcept {
  stop_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    const char byte = 0;
    // Best-effort wake; the poll timeout bounds the latency anyway.
    (void)!::write(wake_pipe_[1], &byte, 1);
  }
}

void Server::close_connection(Connection& conn) {
  if (conn.fd < 0) return;
  if (!conn.is_query) agg_.disconnect(conn.producer);
  ::close(conn.fd);
  conn.fd = -1;
}

/// Pushes pending response bytes without ever blocking the poll loop.
/// Returns true when the connection is done (fully drained, or the client is
/// gone) — the remainder, if any, waits for the next POLLOUT.
bool Server::drain_response(Connection& conn) {
  while (conn.response_off < conn.response.size()) {
    const ssize_t n = ::send(conn.fd, conn.response.data() + conn.response_off,
                             conn.response.size() - conn.response_off,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return false;  // socket buffer full
      return true;  // EPIPE/ECONNRESET: client vanished, response is moot
    }
    conn.response_off += static_cast<std::size_t>(n);
    conn.last_progress = std::chrono::steady_clock::now();
  }
  return true;
}

void Server::maybe_checkpoint(bool force) {
  if (config_.checkpoint_path.empty() && config_.prom_out_path.empty()) return;
  const std::uint64_t merged = agg_.windows_merged();
  if (!force) {
    if (config_.checkpoint_every_windows == 0) return;
    if (merged - last_checkpoint_windows_ < config_.checkpoint_every_windows) return;
  }
  last_checkpoint_windows_ = merged;
  if (!config_.checkpoint_path.empty()) {
    const auto t0 = std::chrono::steady_clock::now();
    tracedb::TraceDatabase db;
    agg_.checkpoint(db);
    try {
      // Atomic commit (temp + rename for flat files, the store writer's own
      // protocol for ".store" paths): a dashboard opening the checkpoint — or
      // a restart after a crash mid-write — never sees a half-written trace.
      tracedb::save_trace_atomic(db, config_.checkpoint_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fleet: checkpoint failed: %s\n", e.what());
    }
    const auto ms = static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                                   std::chrono::steady_clock::now() - t0)
                                                   .count());
    checkpoints_.fetch_add(1, std::memory_order_relaxed);
    checkpoint_last_ms_.store(ms, std::memory_order_relaxed);
    checkpoint_total_ms_.fetch_add(ms, std::memory_order_relaxed);
  }
  write_prom_out();
}

ServeSelfStats Server::self_stats() const {
  ServeSelfStats s;
  const auto now = std::chrono::steady_clock::now();
  s.uptime_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now - started_).count());
  s.bytes_ingested = bytes_ingested_.load(std::memory_order_relaxed);
  for (const auto& conn : conns_) {
    if (conn.fd >= 0 && !conn.is_query) s.producers_connected += 1;
  }
  s.producers_served = producers_served_;
  s.queries_answered = queries_answered_.load(std::memory_order_relaxed);
  s.query_p50_us = query_latency_us_.value_at_percentile(50.0);
  s.query_p99_us = query_latency_us_.value_at_percentile(99.0);
  s.query_max_us = query_latency_us_.max_value();
  s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  s.checkpoint_last_ms = checkpoint_last_ms_.load(std::memory_order_relaxed);
  s.checkpoint_total_ms = checkpoint_total_ms_.load(std::memory_order_relaxed);
  // Lifetime average; the fleet ledger carries the exact frame totals.
  telemetry::Ledger led;
  agg_.fill_ledger(led);
  const telemetry::LedgerStage* ingest = led.find("fleet_ingest");
  if (ingest != nullptr && s.uptime_ms > 0) {
    s.ingest_frames_per_sec =
        static_cast<double>(ingest->produced) * 1000.0 / static_cast<double>(s.uptime_ms);
  }
  return s;
}

std::string Server::answer_query(const std::string& request) {
  const auto t0 = std::chrono::steady_clock::now();
  std::string response;
  // "status" (with optional trailing whitespace) is the daemon's own query:
  // the aggregator supplies producers/lag/ledger, the server the self block.
  std::string verb = request;
  while (!verb.empty() && (verb.back() == ' ' || verb.back() == '\t' || verb.back() == '\r')) {
    verb.pop_back();
  }
  if (verb == "status") {
    const ServeSelfStats self = self_stats();
    response = agg_.status_json(&self);
  } else {
    response = agg_.query(request);
  }
  queries_answered_.fetch_add(1, std::memory_order_relaxed);
  query_latency_us_.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() - t0)
          .count()));
  return response;
}

void Server::write_prom_out() {
  if (config_.prom_out_path.empty()) return;
  telemetry::Ledger led;
  agg_.fill_ledger(led);
  std::vector<telemetry::MetricSnapshotRow> rows;
  telemetry::append_ledger_rows(led, rows);
  const ServeSelfStats self = self_stats();
  const auto counter = [&rows](const char* name, double v) {
    rows.push_back({name, "", telemetry::MetricKind::kCounter, v});
  };
  const auto gauge = [&rows](const char* name, double v) {
    rows.push_back({name, "", telemetry::MetricKind::kGauge, v});
  };
  gauge("serve.uptime_ms", static_cast<double>(self.uptime_ms));
  counter("serve.bytes_ingested", static_cast<double>(self.bytes_ingested));
  gauge("serve.producers_connected", static_cast<double>(self.producers_connected));
  counter("serve.producers_served", static_cast<double>(self.producers_served));
  counter("serve.queries_answered", static_cast<double>(self.queries_answered));
  gauge("serve.ingest_frames_per_sec", self.ingest_frames_per_sec);
  gauge("serve.query_p50_us", static_cast<double>(self.query_p50_us));
  gauge("serve.query_p99_us", static_cast<double>(self.query_p99_us));
  gauge("serve.query_max_us", static_cast<double>(self.query_max_us));
  counter("serve.checkpoints", static_cast<double>(self.checkpoints));
  gauge("serve.checkpoint_last_ms", static_cast<double>(self.checkpoint_last_ms));
  counter("serve.checkpoint_total_ms", static_cast<double>(self.checkpoint_total_ms));
  const std::string text = telemetry::render_prometheus(rows);

  // Temp + rename: a scraper reading the path never sees a torn snapshot.
  const std::string tmp = config_.prom_out_path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "fleet: cannot write %s: %s\n", tmp.c_str(), std::strerror(errno));
    return;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok || std::rename(tmp.c_str(), config_.prom_out_path.c_str()) != 0) {
    std::fprintf(stderr, "fleet: prom-out write failed: %s\n", std::strerror(errno));
    std::remove(tmp.c_str());
  }
}

void Server::maybe_self_stat() {
  if (config_.self_stat_interval_ms == 0) return;
  const auto now = std::chrono::steady_clock::now();
  if (next_self_stat_.time_since_epoch().count() == 0) {
    next_self_stat_ = now + std::chrono::milliseconds(config_.self_stat_interval_ms);
    return;
  }
  if (now < next_self_stat_) return;
  next_self_stat_ = now + std::chrono::milliseconds(config_.self_stat_interval_ms);
  const ServeSelfStats self = self_stats();
  std::fprintf(stderr, "%s\n", agg_.status_json(&self).c_str());
}

std::uint64_t Server::run() {
  using Clock = std::chrono::steady_clock;
  auto last_activity = Clock::now();
  char buf[1 << 16];

  while (!stop_.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.push_back({ingest_fd_, POLLIN, 0});
    if (query_fd_ >= 0) fds.push_back({query_fd_, POLLIN, 0});
    const std::size_t conn_base = fds.size();
    for (const auto& conn : conns_) {
      // A query connection with a pending response only waits for the
      // socket to accept more bytes; its request is already complete.
      const short events = conn.is_query && !conn.response.empty() ? POLLOUT : POLLIN;
      fds.push_back({conn.fd, events, 0});
    }

    const int timeout_ms = config_.idle_exit_ms > 0 ? 50 : 500;
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "fleet: poll: %s\n", std::strerror(errno));
      break;
    }

    if (fds[0].revents != 0) {
      (void)!::read(wake_pipe_[0], buf, sizeof(buf));
    }
    // Accept new producer / query connections.
    if (fds[1].revents != 0) {
      for (;;) {
        const int fd = ::accept(ingest_fd_, nullptr, nullptr);
        if (fd < 0) break;
        Connection conn;
        conn.fd = fd;
        conn.producer = agg_.connect();
        producers_served_ += 1;
        conns_.push_back(conn);
        last_activity = Clock::now();
        break;  // accept one per wakeup; level-triggered poll re-fires
      }
    }
    if (query_fd_ >= 0 && fds[2].revents != 0) {
      const int fd = ::accept(query_fd_, nullptr, nullptr);
      if (fd >= 0) {
        Connection conn;
        conn.fd = fd;
        conn.is_query = true;
        conns_.push_back(conn);
        last_activity = Clock::now();
      }
    }

    // Service established connections.  conns_ may have grown past the
    // pollfd set this round; the new entries are picked up next iteration.
    for (std::size_t i = 0; i < conns_.size() && conn_base + i < fds.size(); ++i) {
      Connection& conn = conns_[i];
      if (conn.fd < 0 || fds[conn_base + i].revents == 0) continue;
      last_activity = Clock::now();
      if (conn.is_query && !conn.response.empty()) {
        if (drain_response(conn)) close_connection(conn);
        continue;
      }
      const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
      if (n <= 0) {
        if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
        if (conn.is_query && !conn.request.empty()) {
          // Client half-closed without a newline: treat the buffer as the
          // full request; the response drains via POLLOUT.
          conn.response = answer_query(conn.request) + "\n";
          conn.last_progress = Clock::now();
          if (drain_response(conn)) close_connection(conn);
          continue;
        }
        close_connection(conn);
        continue;
      }
      if (conn.is_query) {
        const std::size_t scanned = conn.request.size();
        conn.request.append(buf, static_cast<std::size_t>(n));
        const auto eol = conn.request.find('\n', scanned);
        if (std::min(eol, conn.request.size()) > kMaxRequestBytes) {
          conn.response = error_json(support::format("request line longer than %zu bytes",
                                                     kMaxRequestBytes)) + "\n";
        } else if (eol != std::string::npos) {
          conn.request.resize(eol);
          conn.response = answer_query(conn.request) + "\n";
        } else {
          continue;
        }
        conn.last_progress = Clock::now();
        if (drain_response(conn)) close_connection(conn);
      } else {
        bytes_ingested_.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
        agg_.ingest(conn.producer, buf, static_cast<std::size_t>(n));
        maybe_checkpoint(/*force=*/false);
      }
    }
    // Drop query clients whose response has made no progress for too long —
    // a connected-but-not-reading client must not pin its fd (and buffered
    // snapshot) until shutdown.
    for (auto& conn : conns_) {
      if (conn.fd < 0 || conn.response.empty()) continue;
      if (Clock::now() - conn.last_progress >= kResponseStall) close_connection(conn);
    }
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const Connection& c) { return c.fd < 0; }),
                 conns_.end());

    maybe_self_stat();
    if (config_.idle_exit_ms > 0 && conns_.empty()) {
      const auto idle =
          std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - last_activity);
      if (idle.count() >= static_cast<long long>(config_.idle_exit_ms)) break;
    }
  }

  for (auto& conn : conns_) close_connection(conn);
  conns_.clear();
  maybe_checkpoint(/*force=*/true);
  return producers_served_;
}

std::string query_server(const std::string& query_path, const std::string& request) {
  const int fd = connect_unix(query_path);
  if (fd < 0) {
    throw std::runtime_error("cannot connect to query socket " + query_path + ": " +
                             std::strerror(errno));
  }
  const std::string line = request + "\n";
  if (!write_all(fd, line.data(), line.size())) {
    ::close(fd);
    throw std::runtime_error("query write failed");
  }
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[1 << 14];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  // Strip the trailing response newline; callers print their own.
  if (!response.empty() && response.back() == '\n') response.pop_back();
  return response;
}

bool send_producer_stream(const std::string& ingest_path, const std::string& bytes) {
  const int fd = connect_unix(ingest_path);
  if (fd < 0) return false;
  const bool ok = write_all(fd, bytes.data(), bytes.size());
  ::close(fd);
  return ok;
}

int connect_ingest(const std::string& ingest_path) { return connect_unix(ingest_path); }

}  // namespace fleet
