// The tool's one byte codec: every row of a TraceDatabase table, on disk
// and on the fleet wire.
//
// The flat SGXPTRC6 file (serialize.cpp) and the SGXSTORE sections
// (store/format.cpp) frame the tables differently, and the fleet wire
// (fleet/wire.cpp) carries single window and alert rows inside its frames,
// but each table's rows are written by exactly one write_* function here
// and read back by exactly one read_*.  The window and alert tables loop
// over write_window/read_window and write_alert/read_alert, which the
// wire's frames call too.  Integers are little-endian fixed-width; strings
// are u32-length-prefixed here (the wire writes its own u16 ones); doubles
// are stored as their IEEE-754 bit pattern.
//
// The readers also hold every structural check, once: a row count is
// bounded by 2^32 and by the bytes left to read before anything is
// reserved, so a corrupt count is a typed error and never a huge
// allocation; kind bytes must be in range; windows must be well-formed
// intervals and window sites must name an existing window; an alert cannot
// resolve before its onset; and the latency table's HDR bucket geometry
// must match the compiled one.  Every failure is a std::runtime_error.  So
// neither file format can admit a row the other would reject, and a window
// or alert row the wire admits is one a checkpoint of it can load.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "tracedb/schema.hpp"

namespace tracedb::codec {

/// Ceiling on any table's row count: far above a real trace, and low enough
/// that a count times a row size cannot overflow.
inline constexpr std::uint64_t kMaxRows = 1ull << 32;

/// Encoded bytes of one row of each event table (their rows are fixed-width).
inline constexpr std::size_t kCallRowBytes = 1 + 1 + 4 + 8 + 4 + 8 + 8 + 8 + 4;
inline constexpr std::size_t kAexRowBytes = 4 + 8 + 8 + 8 + 1;
inline constexpr std::size_t kPagingRowBytes = 8 + 8 + 1 + 8;
inline constexpr std::size_t kSyncRowBytes = 1 + 4 + 4 + 8 + 8;

/// Little-endian in-memory byte assembler.
class BufWriter {
 public:
  void bytes(const void* p, std::size_t n) { out_.append(static_cast<const char*>(p), n); }
  void u8(std::uint8_t v) { bytes(&v, 1); }
  void u16(std::uint16_t v) { bytes(&v, 2); }
  void u32(std::uint32_t v) { bytes(&v, 4); }
  void u64(std::uint64_t v) { bytes(&v, 8); }
  void f64(double v);
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }
  /// Appends `n` bytes and returns where they start, for a caller that
  /// stores fixed-width rows at known offsets itself.  The pointer is
  /// invalidated by the next append.
  [[nodiscard]] char* grow(std::size_t n) {
    const std::size_t at = out_.size();
    out_.resize(at + n);
    return out_.data() + at;
  }
  void reserve(std::size_t n) { out_.reserve(n); }
  [[nodiscard]] const std::string& str_ref() const noexcept { return out_; }
  [[nodiscard]] std::string take() noexcept { return std::move(out_); }
  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }

 private:
  std::string out_;
};

/// Bounds-checked reader over a byte span.  Every error reads
/// "<prefix>: <what> in <context>" ("<prefix>: truncated <context>" for an
/// overrun), so the caller decides how a failure names the file or section.
class SpanReader {
 public:
  SpanReader(const char* data, std::size_t size, std::string prefix, std::string context)
      : p_(data), end_(data + size), prefix_(std::move(prefix)), context_(std::move(context)) {}

  /// Consumes the next `n` bytes and returns where they start, for a caller
  /// that decodes fixed-width rows at known offsets itself.
  [[nodiscard]] const char* take(std::size_t n) {
    if (remaining() < n) truncated();
    const char* at = p_;
    p_ += n;
    return at;
  }
  void bytes(void* out, std::size_t n) { std::memcpy(out, take(n), n); }
  std::uint8_t u8() { std::uint8_t v; bytes(&v, 1); return v; }
  std::uint16_t u16() { std::uint16_t v; bytes(&v, 2); return v; }
  std::uint32_t u32() { std::uint32_t v; bytes(&v, 4); return v; }
  std::uint64_t u64() { std::uint64_t v; bytes(&v, 8); return v; }
  double f64();
  std::string str();

  /// Guards a reserve(): rejects more than 2^32 rows, or more rows of at
  /// least `min_row_bytes` each than the bytes left can hold.
  void check_rows(std::uint64_t n, std::size_t min_row_bytes, const char* table);
  [[noreturn]] void fail(const std::string& what) const;

  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }

 private:
  [[noreturn]] void truncated() const;

  const char* p_;
  const char* end_;
  std::string prefix_;
  std::string context_;
};

/// A whole file mapped read-only, unmapped on destruction.  Errors read
/// "<prefix>: cannot open <what> <path>" (likewise stat and map).
class MappedFile {
 public:
  MappedFile(const std::string& path, const std::string& prefix, const std::string& what);
  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] const char* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

// --- tables ------------------------------------------------------------------
//
// The four event tables are rows only: an event chunk keeps their counts in
// its header.  The reader takes the count from the caller and adds `rebase`
// to every non-negative CallIndex reference (CallRecord::parent,
// AexRecord::during_call).  Every other table is a u64 row count followed
// by the rows.  Readers append to `out`.

void write_calls(BufWriter& w, std::span<const CallRecord> rows);
void write_aexs(BufWriter& w, std::span<const AexRecord> rows);
void write_paging(BufWriter& w, std::span<const PagingRecord> rows);
void write_syncs(BufWriter& w, std::span<const SyncRecord> rows);
/// With `check_parents`, `out` must receive the whole call table in row
/// order: a call whose parent (after rebasing) is neither kNoParent nor an
/// earlier row is rejected.  The store rebases per write batch, not per
/// chunk, so the bound is the row's index in `out`, not in its chunk.
void read_calls(SpanReader& r, std::uint64_t n, std::vector<CallRecord>& out,
                CallIndex rebase, bool check_parents);
void read_aexs(SpanReader& r, std::uint64_t n, std::vector<AexRecord>& out, CallIndex rebase);
void read_paging(SpanReader& r, std::uint64_t n, std::vector<PagingRecord>& out);
void read_syncs(SpanReader& r, std::uint64_t n, std::vector<SyncRecord>& out);

void write_enclaves(BufWriter& w, std::span<const EnclaveRecord> rows);
void write_call_names(BufWriter& w, std::span<const CallNameRecord> rows);
void write_metric_series(BufWriter& w, std::span<const MetricSeriesRecord> rows);
void write_metric_samples(BufWriter& w, std::span<const MetricSampleRecord> rows);
/// Preceded by the compiled HDR bucket geometry (sub_bits, max_exponent).
void write_latencies(BufWriter& w, std::span<const LatencyRecord> rows);
/// One window row, or one alert row: the tables below are a count and
/// these rows, and the fleet wire's window and alert frames carry them.
void write_window(BufWriter& w, const WindowRecord& row);
void write_alert(BufWriter& w, const AlertRecord& row);
[[nodiscard]] WindowRecord read_window(SpanReader& r);
[[nodiscard]] AlertRecord read_alert(SpanReader& r);
/// A call-type byte, which must name a CallType.
[[nodiscard]] CallType read_call_type(SpanReader& r);

void write_windows(BufWriter& w, std::span<const WindowRecord> rows);
void write_window_sites(BufWriter& w, std::span<const WindowSiteRecord> rows);
void write_alerts(BufWriter& w, std::span<const AlertRecord> rows);
void write_order_rules(BufWriter& w, std::span<const OrderRuleRecord> rows);

void read_enclaves(SpanReader& r, std::vector<EnclaveRecord>& out);
void read_call_names(SpanReader& r, std::vector<CallNameRecord>& out);
void read_metric_series(SpanReader& r, std::vector<MetricSeriesRecord>& out);
void read_metric_samples(SpanReader& r, std::vector<MetricSampleRecord>& out);
void read_latencies(SpanReader& r, std::vector<LatencyRecord>& out);
void read_windows(SpanReader& r, std::vector<WindowRecord>& out);
/// Each site's window_index must be below `n_windows`.
void read_window_sites(SpanReader& r, std::vector<WindowSiteRecord>& out,
                       std::size_t n_windows);
void read_alerts(SpanReader& r, std::vector<AlertRecord>& out);
void read_order_rules(SpanReader& r, std::vector<OrderRuleRecord>& out);

}  // namespace tracedb::codec
