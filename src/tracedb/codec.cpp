// Row codec shared by the flat file, the SGXSTORE sections and the fleet
// wire; see codec.hpp.
#include "tracedb/codec.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "telemetry/hdr_histogram.hpp"

namespace tracedb::codec {
namespace {

/// Checks a row count and reserves room for it in `out`.  The store reader
/// reserves all of its chunks' rows up front, so there this is a no-op.
template <class Record>
void reserve_rows(SpanReader& r, std::uint64_t n, std::size_t min_row_bytes, const char* table,
                  std::vector<Record>& out) {
  r.check_rows(n, min_row_bytes, table);
  out.reserve(out.size() + n);
}

// Field offsets of the four fixed-width event rows; each row's last field
// ends exactly at its row width.
namespace call_row {
constexpr std::size_t kType = 0x00;      // u8 CallType
constexpr std::size_t kKind = 0x01;      // u8 OcallKind
constexpr std::size_t kThread = 0x02;    // u32
constexpr std::size_t kEnclave = 0x06;   // u64
constexpr std::size_t kCallId = 0x0E;    // u32
constexpr std::size_t kParent = 0x12;    // i64
constexpr std::size_t kStart = 0x1A;     // u64
constexpr std::size_t kEnd = 0x22;       // u64
constexpr std::size_t kAexCount = 0x2A;  // u32
static_assert(kAexCount + 4 == kCallRowBytes);
}  // namespace call_row

namespace aex_row {
constexpr std::size_t kThread = 0x00;      // u32
constexpr std::size_t kEnclave = 0x04;     // u64
constexpr std::size_t kTimestamp = 0x0C;   // u64
constexpr std::size_t kDuringCall = 0x14;  // i64
constexpr std::size_t kCause = 0x1C;       // u8 AexCause
static_assert(kCause + 1 == kAexRowBytes);
}  // namespace aex_row

namespace paging_row {
constexpr std::size_t kEnclave = 0x00;    // u64
constexpr std::size_t kPage = 0x08;       // u64
constexpr std::size_t kDirection = 0x10;  // u8 PageDirection
constexpr std::size_t kTimestamp = 0x11;  // u64
static_assert(kTimestamp + 8 == kPagingRowBytes);
}  // namespace paging_row

namespace sync_row {
constexpr std::size_t kKind = 0x00;       // u8 SyncKind
constexpr std::size_t kThread = 0x01;     // u32
constexpr std::size_t kTarget = 0x05;     // u32
constexpr std::size_t kEnclave = 0x09;    // u64
constexpr std::size_t kTimestamp = 0x11;  // u64
static_assert(kTimestamp + 8 == kSyncRowBytes);
}  // namespace sync_row

template <class T>
void store_at(char* row, std::size_t at, T v) {
  std::memcpy(row + at, &v, sizeof v);
}

template <class T>
T load_at(const char* row, std::size_t at) {
  T v;
  std::memcpy(&v, row + at, sizeof v);
  return v;
}

/// A call index read from a row, plus the store's per-batch rebase if it is
/// not negative.  Both come from the file, so the sum wraps rather than
/// overflows; a wrapped parent is refused like any other non-earlier call.
CallIndex rebased(CallIndex index, CallIndex rebase) {
  if (index < 0) return index;
  return static_cast<CallIndex>(static_cast<std::uint64_t>(index) +
                                static_cast<std::uint64_t>(rebase));
}

/// The kind byte at `at`, which must be below `kCount`.
template <class Enum, std::uint8_t kCount>
Enum kind_at(const SpanReader& r, const char* row, std::size_t at, const char* what) {
  const auto v = load_at<std::uint8_t>(row, at);
  if (v >= kCount) [[unlikely]] r.fail(what);
  return static_cast<Enum>(v);
}

/// The next byte as a kind, which must be below `kCount`.
template <class Enum, std::uint8_t kCount>
Enum read_kind(SpanReader& r, const char* what) {
  const std::uint8_t v = r.u8();
  if (v >= kCount) [[unlikely]] r.fail(what);
  return static_cast<Enum>(v);
}

}  // namespace

// --- plumbing ----------------------------------------------------------------

CallType read_call_type(SpanReader& r) {
  return read_kind<CallType, kCallTypeCount>(r, "unknown call type");
}

void BufWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void SpanReader::truncated() const {
  throw std::runtime_error(prefix_ + ": truncated " + context_);
}

double SpanReader::f64() { return std::bit_cast<double>(u64()); }

std::string SpanReader::str() {
  const std::uint32_t n = u32();
  if (n > (1u << 24)) fail("implausible string length");
  std::string s(n, '\0');
  if (n > 0) bytes(s.data(), n);
  return s;
}

void SpanReader::check_rows(std::uint64_t n, std::size_t min_row_bytes, const char* table) {
  if (n > kMaxRows || n * min_row_bytes > remaining()) {
    fail(std::string("implausible ") + table + " count");
  }
}

void SpanReader::fail(const std::string& what) const {
  throw std::runtime_error(prefix_ + ": " + what + " in " + context_);
}

MappedFile::MappedFile(const std::string& path, const std::string& prefix,
                       const std::string& what) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error(prefix + ": cannot open " + what + " " + path);
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error(prefix + ": cannot stat " + what + " " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size > 0) {
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error(prefix + ": cannot map " + what + " " + path + ": " +
                               std::strerror(err));
    }
    data_ = static_cast<const char*>(addr);
    size_ = size;
  }
  ::close(fd);
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
}

// --- event tables --------------------------------------------------------------
//
// Each event row is stored into and read back from the bytes at these fixed
// offsets (DESIGN.md lays them out as tables), so the layout is stated once.
// A writer grows its buffer once for the whole table and stores each row in
// place.  A reader checks its whole table's bounds with one take(); only the
// checks that depend on a row's data run per row, before the row is
// appended.  The row is then filled in place: at -O2, building it on the
// stack and copying it in cost about half again as much per call.

void write_calls(BufWriter& w, std::span<const CallRecord> rows) {
  char* row = w.grow(rows.size() * kCallRowBytes);
  for (const auto& c : rows) {
    store_at(row, call_row::kType, static_cast<std::uint8_t>(c.type));
    store_at(row, call_row::kKind, static_cast<std::uint8_t>(c.kind));
    store_at(row, call_row::kThread, c.thread_id);
    store_at(row, call_row::kEnclave, c.enclave_id);
    store_at(row, call_row::kCallId, c.call_id);
    store_at(row, call_row::kParent, c.parent);
    store_at(row, call_row::kStart, c.start_ns);
    store_at(row, call_row::kEnd, c.end_ns);
    store_at(row, call_row::kAexCount, c.aex_count);
    row += kCallRowBytes;
  }
}

void read_calls(SpanReader& r, std::uint64_t n, std::vector<CallRecord>& out,
                CallIndex rebase, bool check_parents) {
  reserve_rows(r, n, kCallRowBytes, "call", out);
  const char* row = r.take(n * kCallRowBytes);
  const std::size_t first = out.size();
  for (std::uint64_t i = 0; i < n; ++i, row += kCallRowBytes) {
    const auto type = kind_at<CallType, kCallTypeCount>(r, row, call_row::kType,
                                                        "unknown call type");
    const auto kind = kind_at<OcallKind, kOcallKindCount>(r, row, call_row::kKind,
                                                          "unknown ocall kind");
    const CallIndex parent = rebased(load_at<CallIndex>(row, call_row::kParent), rebase);
    if (check_parents && parent != kNoParent &&
        (parent < 0 || static_cast<std::size_t>(parent) >= first + i)) [[unlikely]] {
      r.fail("call " + std::to_string(first + i) + " has parent " + std::to_string(parent) +
             ", not an earlier call");
    }
    CallRecord& c = out.emplace_back();
    c.type = type;
    c.kind = kind;
    c.thread_id = load_at<ThreadId>(row, call_row::kThread);
    c.enclave_id = load_at<EnclaveId>(row, call_row::kEnclave);
    c.call_id = load_at<CallId>(row, call_row::kCallId);
    c.parent = parent;
    c.start_ns = load_at<Nanoseconds>(row, call_row::kStart);
    c.end_ns = load_at<Nanoseconds>(row, call_row::kEnd);
    c.aex_count = load_at<std::uint32_t>(row, call_row::kAexCount);
  }
}

void write_aexs(BufWriter& w, std::span<const AexRecord> rows) {
  char* row = w.grow(rows.size() * kAexRowBytes);
  for (const auto& a : rows) {
    store_at(row, aex_row::kThread, a.thread_id);
    store_at(row, aex_row::kEnclave, a.enclave_id);
    store_at(row, aex_row::kTimestamp, a.timestamp_ns);
    store_at(row, aex_row::kDuringCall, a.during_call);
    store_at(row, aex_row::kCause, static_cast<std::uint8_t>(a.cause));
    row += kAexRowBytes;
  }
}

void read_aexs(SpanReader& r, std::uint64_t n, std::vector<AexRecord>& out, CallIndex rebase) {
  reserve_rows(r, n, kAexRowBytes, "aex", out);
  const char* row = r.take(n * kAexRowBytes);
  for (std::uint64_t i = 0; i < n; ++i, row += kAexRowBytes) {
    const auto cause =
        kind_at<AexCause, kAexCauseCount>(r, row, aex_row::kCause, "unknown aex cause");
    AexRecord& a = out.emplace_back();
    a.thread_id = load_at<ThreadId>(row, aex_row::kThread);
    a.enclave_id = load_at<EnclaveId>(row, aex_row::kEnclave);
    a.timestamp_ns = load_at<Nanoseconds>(row, aex_row::kTimestamp);
    a.during_call = rebased(load_at<CallIndex>(row, aex_row::kDuringCall), rebase);
    a.cause = cause;
  }
}

void write_paging(BufWriter& w, std::span<const PagingRecord> rows) {
  char* row = w.grow(rows.size() * kPagingRowBytes);
  for (const auto& p : rows) {
    store_at(row, paging_row::kEnclave, p.enclave_id);
    store_at(row, paging_row::kPage, p.page_number);
    store_at(row, paging_row::kDirection, static_cast<std::uint8_t>(p.direction));
    store_at(row, paging_row::kTimestamp, p.timestamp_ns);
    row += kPagingRowBytes;
  }
}

void read_paging(SpanReader& r, std::uint64_t n, std::vector<PagingRecord>& out) {
  reserve_rows(r, n, kPagingRowBytes, "paging", out);
  const char* row = r.take(n * kPagingRowBytes);
  for (std::uint64_t i = 0; i < n; ++i, row += kPagingRowBytes) {
    const auto direction = kind_at<PageDirection, kPageDirectionCount>(
        r, row, paging_row::kDirection, "unknown paging direction");
    PagingRecord& p = out.emplace_back();
    p.enclave_id = load_at<EnclaveId>(row, paging_row::kEnclave);
    p.page_number = load_at<std::uint64_t>(row, paging_row::kPage);
    p.direction = direction;
    p.timestamp_ns = load_at<Nanoseconds>(row, paging_row::kTimestamp);
  }
}

void write_syncs(BufWriter& w, std::span<const SyncRecord> rows) {
  char* row = w.grow(rows.size() * kSyncRowBytes);
  for (const auto& s : rows) {
    store_at(row, sync_row::kKind, static_cast<std::uint8_t>(s.kind));
    store_at(row, sync_row::kThread, s.thread_id);
    store_at(row, sync_row::kTarget, s.target_thread_id);
    store_at(row, sync_row::kEnclave, s.enclave_id);
    store_at(row, sync_row::kTimestamp, s.timestamp_ns);
    row += kSyncRowBytes;
  }
}

void read_syncs(SpanReader& r, std::uint64_t n, std::vector<SyncRecord>& out) {
  reserve_rows(r, n, kSyncRowBytes, "sync", out);
  const char* row = r.take(n * kSyncRowBytes);
  for (std::uint64_t i = 0; i < n; ++i, row += kSyncRowBytes) {
    const auto kind = kind_at<SyncKind, kSyncKindCount>(r, row, sync_row::kKind,
                                                        "unknown sync kind");
    SyncRecord& s = out.emplace_back();
    s.kind = kind;
    s.thread_id = load_at<ThreadId>(row, sync_row::kThread);
    s.target_thread_id = load_at<ThreadId>(row, sync_row::kTarget);
    s.enclave_id = load_at<EnclaveId>(row, sync_row::kEnclave);
    s.timestamp_ns = load_at<Nanoseconds>(row, sync_row::kTimestamp);
  }
}

// --- counted tables ------------------------------------------------------------

void write_enclaves(BufWriter& w, std::span<const EnclaveRecord> rows) {
  w.u64(rows.size());
  for (const auto& e : rows) {
    w.u64(e.enclave_id);
    w.str(e.name);
    w.u64(e.created_ns);
    w.u64(e.destroyed_ns);
    w.u32(e.tcs_count);
    w.u64(e.size_bytes);
  }
}

void read_enclaves(SpanReader& r, std::vector<EnclaveRecord>& out) {
  const std::uint64_t n = r.u64();
  reserve_rows(r, n, 8 + 4 + 8 + 8 + 4 + 8, "enclave", out);
  for (std::uint64_t i = 0; i < n; ++i) {
    EnclaveRecord e;
    e.enclave_id = r.u64();
    e.name = r.str();
    e.created_ns = r.u64();
    e.destroyed_ns = r.u64();
    e.tcs_count = r.u32();
    e.size_bytes = r.u64();
    out.push_back(std::move(e));
  }
}

void write_call_names(BufWriter& w, std::span<const CallNameRecord> rows) {
  w.u64(rows.size());
  for (const auto& n : rows) {
    w.u64(n.enclave_id);
    w.u8(static_cast<std::uint8_t>(n.type));
    w.u32(n.call_id);
    w.str(n.name);
  }
}

void read_call_names(SpanReader& r, std::vector<CallNameRecord>& out) {
  const std::uint64_t n = r.u64();
  reserve_rows(r, n, 8 + 1 + 4 + 4, "call-name", out);
  for (std::uint64_t i = 0; i < n; ++i) {
    CallNameRecord name;
    name.enclave_id = r.u64();
    name.type = read_call_type(r);
    name.call_id = r.u32();
    name.name = r.str();
    out.push_back(std::move(name));
  }
}

void write_metric_series(BufWriter& w, std::span<const MetricSeriesRecord> rows) {
  w.u64(rows.size());
  for (const auto& s : rows) {
    w.u32(s.series_id);
    w.u8(static_cast<std::uint8_t>(s.kind));
    w.str(s.name);
    w.str(s.unit);
  }
}

void read_metric_series(SpanReader& r, std::vector<MetricSeriesRecord>& out) {
  const std::uint64_t n = r.u64();
  reserve_rows(r, n, 4 + 1 + 4 + 4, "metric-series", out);
  for (std::uint64_t i = 0; i < n; ++i) {
    MetricSeriesRecord s;
    s.series_id = r.u32();
    s.kind = read_kind<MetricKind, kMetricKindCount>(r, "unknown metric kind");
    s.name = r.str();
    s.unit = r.str();
    out.push_back(std::move(s));
  }
}

void write_metric_samples(BufWriter& w, std::span<const MetricSampleRecord> rows) {
  w.u64(rows.size());
  for (const auto& s : rows) {
    w.u32(s.series_id);
    w.u64(s.timestamp_ns);
    w.f64(s.value);
  }
}

void read_metric_samples(SpanReader& r, std::vector<MetricSampleRecord>& out) {
  const std::uint64_t n = r.u64();
  reserve_rows(r, n, 4 + 8 + 8, "metric-sample", out);
  for (std::uint64_t i = 0; i < n; ++i) {
    MetricSampleRecord s;
    s.series_id = r.u32();
    s.timestamp_ns = r.u64();
    s.value = r.f64();
    out.push_back(s);
  }
}

void write_latencies(BufWriter& w, std::span<const LatencyRecord> rows) {
  w.u8(static_cast<std::uint8_t>(telemetry::hdr::kSubBits));
  w.u8(static_cast<std::uint8_t>(telemetry::hdr::kMaxExponent));
  w.u64(rows.size());
  for (const auto& l : rows) {
    w.u64(l.enclave_id);
    w.u8(static_cast<std::uint8_t>(l.type));
    w.u32(l.call_id);
    w.u64(l.count);
    w.u64(l.sum_ns);
    w.u32(static_cast<std::uint32_t>(l.buckets.size()));
    for (const auto& [idx, n] : l.buckets) {
      w.u32(idx);
      w.u64(n);
    }
  }
}

void read_latencies(SpanReader& r, std::vector<LatencyRecord>& out) {
  const std::uint8_t sub_bits = r.u8();
  const std::uint8_t max_exp = r.u8();
  if (sub_bits != telemetry::hdr::kSubBits || max_exp != telemetry::hdr::kMaxExponent) {
    r.fail("latency bucket geometry mismatch");
  }
  const std::uint64_t n = r.u64();
  reserve_rows(r, n, 8 + 1 + 4 + 8 + 8 + 4, "latency", out);
  for (std::uint64_t i = 0; i < n; ++i) {
    LatencyRecord l;
    l.enclave_id = r.u64();
    l.type = read_call_type(r);
    l.call_id = r.u32();
    l.count = r.u64();
    l.sum_ns = r.u64();
    const std::uint32_t n_buckets = r.u32();
    if (n_buckets > telemetry::hdr::kBucketCount) r.fail("implausible latency bucket count");
    l.buckets.reserve(n_buckets);
    for (std::uint32_t b = 0; b < n_buckets; ++b) {
      const std::uint32_t idx = r.u32();
      const std::uint64_t count = r.u64();
      l.buckets.emplace_back(idx, count);
    }
    out.push_back(std::move(l));
  }
}

void write_window(BufWriter& w, const WindowRecord& win) {
  w.u32(win.window_index);
  w.u64(win.start_ns);
  w.u64(win.end_ns);
  w.u64(win.calls);
  w.u64(win.aexs);
  w.u64(win.page_ins);
  w.u64(win.page_outs);
  w.u64(win.stream_dropped);
  w.u64(win.switchless_calls);
  w.u64(win.switchless_fallbacks);
  w.u64(win.switchless_wasted_ns);
  w.u32(win.active_alerts);
}

WindowRecord read_window(SpanReader& r) {
  WindowRecord win;
  win.window_index = r.u32();
  win.start_ns = r.u64();
  win.end_ns = r.u64();
  win.calls = r.u64();
  win.aexs = r.u64();
  win.page_ins = r.u64();
  win.page_outs = r.u64();
  win.stream_dropped = r.u64();
  win.switchless_calls = r.u64();
  win.switchless_fallbacks = r.u64();
  win.switchless_wasted_ns = r.u64();
  win.active_alerts = r.u32();
  if (win.end_ns < win.start_ns) r.fail("malformed window interval");
  return win;
}

void write_windows(BufWriter& w, std::span<const WindowRecord> rows) {
  w.u64(rows.size());
  for (const auto& win : rows) write_window(w, win);
}

void read_windows(SpanReader& r, std::vector<WindowRecord>& out) {
  const std::uint64_t n = r.u64();
  reserve_rows(r, n, 4 + 8 * 10 + 4, "window", out);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(read_window(r));
}

void write_window_sites(BufWriter& w, std::span<const WindowSiteRecord> rows) {
  w.u64(rows.size());
  for (const auto& site : rows) {
    w.u32(site.window_index);
    w.u64(site.enclave_id);
    w.u8(static_cast<std::uint8_t>(site.type));
    w.u32(site.call_id);
    w.u64(site.calls);
    w.u64(site.aex_count);
    w.u64(site.p50_ns);
    w.u64(site.p99_ns);
  }
}

void read_window_sites(SpanReader& r, std::vector<WindowSiteRecord>& out,
                       std::size_t n_windows) {
  const std::uint64_t n = r.u64();
  reserve_rows(r, n, 4 + 8 + 1 + 4 + 8 * 4, "window-site", out);
  for (std::uint64_t i = 0; i < n; ++i) {
    WindowSiteRecord site;
    site.window_index = r.u32();
    site.enclave_id = r.u64();
    site.type = read_call_type(r);
    site.call_id = r.u32();
    site.calls = r.u64();
    site.aex_count = r.u64();
    site.p50_ns = r.u64();
    site.p99_ns = r.u64();
    if (site.window_index >= n_windows) r.fail("window-site references unknown window");
    out.push_back(site);
  }
}

void write_alert(BufWriter& w, const AlertRecord& alert) {
  w.u8(static_cast<std::uint8_t>(alert.kind));
  w.u64(alert.enclave_id);
  w.u8(static_cast<std::uint8_t>(alert.type));
  w.u32(alert.call_id);
  w.u64(alert.onset_ns);
  w.u64(alert.resolved_ns);
  w.u32(alert.window_index);
  w.u64(alert.detail);
}

AlertRecord read_alert(SpanReader& r) {
  AlertRecord alert;
  alert.kind = read_kind<AlertKind, kAlertKindCount>(r, "unknown alert kind");
  alert.enclave_id = r.u64();
  alert.type = read_call_type(r);
  alert.call_id = r.u32();
  alert.onset_ns = r.u64();
  alert.resolved_ns = r.u64();
  alert.window_index = r.u32();
  alert.detail = r.u64();
  if (alert.resolved_ns != 0 && alert.resolved_ns < alert.onset_ns) {
    r.fail("alert resolved before onset");
  }
  return alert;
}

void write_alerts(BufWriter& w, std::span<const AlertRecord> rows) {
  w.u64(rows.size());
  for (const auto& alert : rows) write_alert(w, alert);
}

void read_alerts(SpanReader& r, std::vector<AlertRecord>& out) {
  const std::uint64_t n = r.u64();
  reserve_rows(r, n, 1 + 8 + 1 + 4 + 8 + 8 + 4 + 8, "alert", out);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(read_alert(r));
}

void write_order_rules(BufWriter& w, std::span<const OrderRuleRecord> rows) {
  w.u64(rows.size());
  for (const auto& rule : rows) {
    w.u64(rule.enclave_id);
    w.u8(static_cast<std::uint8_t>(rule.rule));
    w.u32(rule.a);
    w.u32(rule.b);
  }
}

void read_order_rules(SpanReader& r, std::vector<OrderRuleRecord>& out) {
  const std::uint64_t n = r.u64();
  reserve_rows(r, n, 8 + 1 + 4 + 4, "order-rule", out);
  for (std::uint64_t i = 0; i < n; ++i) {
    OrderRuleRecord rule;
    rule.enclave_id = r.u64();
    rule.rule =
        read_kind<OrderRuleRecord::Rule, kOrderRuleKindCount>(r, "unknown order-rule kind");
    rule.a = r.u32();
    rule.b = r.u32();
    out.push_back(rule);
  }
}

}  // namespace tracedb::codec
