// Fleet wire format: length-prefixed binary frames between a monitored
// process (perf::MonitorSession + FrameSink) and the `sgxperf serve`
// aggregation daemon.
//
// A producer stream is:
//
//   u32 magic "SGXF" | frame*            (all integers little-endian)
//   frame  := u32 payload_len | u8 type | payload
//   string := u16 len | bytes            (UTF-8, no terminator)
//
// Frame types (payloads documented on the structs below):
//
//   kHello  — once, first: wire version, HDR geometry, (host, enclave)
//             identity, window period.  The aggregator rejects streams whose
//             HDR geometry differs from its own — bucket indices are only
//             portable between identical (sub_bits, max_exponent).
//   kWindow — one per closed window: the WindowRecord plus, per site, the
//             persisted row and the window-local HDR *delta* as sparse
//             (bucket, count) pairs.  Deltas are the merge currency: the
//             aggregator sums them bucket-wise into per-site fleet
//             cumulatives, which reconstructs each producer's cumulative
//             distribution exactly (same property the shard merge relies
//             on), so merged percentiles match single-process WindowedHdr
//             values within bucket resolution.
//   kAlert  — one per raise/resolve transition, with the resolved site name
//             (the consumer has no name table).
//   kStats  — session loss counters; lets the daemon flag lossy producers.
//   kBye    — clean end of stream with the sealed end timestamp.  A stream
//             that ends without kBye (producer died) is kept, flagged lossy.
//
// Bytes are written and read with tracedb::codec, and the window and alert
// frames carry that codec's window and alert rows, so a row the wire admits
// passes the trace formats' checks too.  Decoding is incremental
// (FrameParser::push accepts arbitrary byte slices, e.g. socket reads) and
// paranoid: every length is bounds-checked against the frame, malformed
// input poisons the parser instead of the process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "perf/session.hpp"
#include "tracedb/schema.hpp"

namespace fleet {

inline constexpr std::uint32_t kWireMagic = 0x46584753;  // "SGXF" little-endian
inline constexpr std::uint16_t kWireVersion = 1;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kWindow = 2,
  kAlert = 3,
  kStats = 4,
  kBye = 5,
};

/// u16 version | u8 hdr_sub_bits | u8 hdr_max_exponent | u64 window_ns |
/// string host | string enclave
struct HelloFrame {
  std::uint16_t version = kWireVersion;
  std::uint8_t hdr_sub_bits = 0;
  std::uint8_t hdr_max_exponent = 0;
  std::uint64_t window_ns = 0;
  std::string host;
  std::string enclave;
};

/// Per-site payload inside a window frame: u64 enclave_id | u8 type |
/// u32 call_id | string name | u64 calls | u64 aex | u64 p50 | u64 p99 |
/// u64 delta_count | u64 delta_sum | u32 pairs | (u32 bucket, u64 count)*
struct WireSite {
  tracedb::WindowSiteRecord row;
  std::string name;
  std::uint64_t delta_count = 0;
  std::uint64_t delta_sum = 0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;  // sparse, ascending
};

/// window row (tracedb::codec::write_window) | u32 site_count | site*
struct WindowFrame {
  tracedb::WindowRecord window;
  std::vector<WireSite> sites;
};

/// u8 resolved | alert row (tracedb::codec::write_alert) | string site
struct AlertFrame {
  tracedb::AlertRecord alert;
  bool resolved = false;
  std::string site_name;
};

/// u64 events | u64 stream_dropped | u64 sealed_dropped | u64 pending_evicted
struct StatsFrame {
  std::uint64_t events = 0;
  std::uint64_t stream_dropped = 0;
  std::uint64_t sealed_dropped = 0;
  std::uint64_t pending_evicted = 0;
};

/// u64 end_ns
struct ByeFrame {
  std::uint64_t end_ns = 0;
};

using Frame = std::variant<HelloFrame, WindowFrame, AlertFrame, StatsFrame, ByeFrame>;

// --- encoding ---------------------------------------------------------------

/// Appends the stream magic — once, before the first frame.
void encode_magic(std::string& out);
void encode(std::string& out, const HelloFrame& f);
void encode(std::string& out, const WindowFrame& f);
void encode(std::string& out, const AlertFrame& f);
void encode(std::string& out, const StatsFrame& f);
void encode(std::string& out, const ByeFrame& f);

/// perf::MonitorSink that serialises the session's typed output as wire
/// frames into a caller-supplied byte sink (a socket write, a pipe, a
/// std::string for in-process transport).  Emits magic + hello on
/// on_session_start, then window/alert/stats frames, then bye on finish.
class FrameSink : public perf::MonitorSink {
 public:
  /// Returns true when the bytes were handed to the transport; false when
  /// the consumer is gone (daemon died, pipe closed).  The sink counts the
  /// outcome per frame — the ledger's fleet_wire stage.
  using WriteFn = std::function<bool(const char* data, std::size_t size)>;

  explicit FrameSink(WriteFn write) : write_(std::move(write)) {}

  /// Convenience: a FrameSink appending to `out` (in-process transport).
  static std::shared_ptr<FrameSink> to_string(std::string& out);

  void on_session_start(const perf::SessionInfo& info) override;
  void on_alert(const tracedb::AlertRecord& alert, bool resolved,
                const std::string& site_name) override;
  void on_window(const tracedb::WindowRecord& window,
                 const std::vector<perf::SessionWindowSite>& sites) override;
  void on_stats(const perf::SessionStats& stats) override;
  void on_finish(std::uint64_t end_ns) override;

  [[nodiscard]] std::uint64_t frames_produced() const noexcept { return frames_produced_; }
  [[nodiscard]] std::uint64_t frames_delivered() const noexcept { return frames_delivered_; }
  [[nodiscard]] std::uint64_t frames_dropped() const noexcept { return frames_dropped_; }

  /// Appends the "fleet_wire" stage (unit: frames, drop reason
  /// "consumer_gone") to `led`.  Monitoring-thread-only, like the sink.
  void fill_ledger(telemetry::Ledger& led) const;

 private:
  void emit(const std::string& bytes);

  WriteFn write_;
  std::uint64_t frames_produced_ = 0;
  std::uint64_t frames_delivered_ = 0;
  std::uint64_t frames_dropped_ = 0;
};

// --- decoding ---------------------------------------------------------------

/// Incremental frame decoder: push() arbitrary byte slices, then drain
/// next() until it returns nullopt.  A framing violation (bad magic, bogus
/// length, truncated payload) or a row the codec refuses latches the typed
/// message as error() — further input is ignored,
/// which is exactly how the aggregator quarantines a misbehaving producer.
class FrameParser {
 public:
  /// Frames larger than this are rejected as corrupt framing.
  static constexpr std::uint32_t kMaxPayload = 1u << 26;

  void push(const char* data, std::size_t size);
  void push(const std::string& bytes) { push(bytes.data(), bytes.size()); }

  /// Next complete frame, or nullopt when more bytes are needed (or the
  /// parser is poisoned).
  [[nodiscard]] std::optional<Frame> next();

  [[nodiscard]] bool error() const noexcept { return !error_.empty(); }
  [[nodiscard]] const std::string& error_message() const noexcept { return error_; }
  /// Bytes pushed but not yet returned as a frame (a partial frame).
  [[nodiscard]] std::size_t buffered_bytes() const noexcept { return buf_.size() - pos_; }

 private:
  void fail(std::string message);

  std::string buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  bool saw_magic_ = false;
  std::string error_;
};

}  // namespace fleet
