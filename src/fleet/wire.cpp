#include "fleet/wire.hpp"

#include <iterator>
#include <stdexcept>

#include "support/strutil.hpp"
#include "telemetry/hdr_histogram.hpp"
#include "tracedb/codec.hpp"

namespace fleet {
namespace {

namespace codec = tracedb::codec;

/// Wire strings are u16-length-prefixed; a longer string is cut at 65,535
/// bytes.
void write_str16(codec::BufWriter& w, const std::string& s) {
  const std::size_t n = std::min<std::size_t>(s.size(), 0xffff);
  w.u16(static_cast<std::uint16_t>(n));
  w.bytes(s.data(), n);
}

std::string read_str16(codec::SpanReader& r) {
  const std::uint16_t n = r.u16();
  return std::string(r.take(n), n);
}

/// Appends the frame header and `payload` to `out`.
void append_frame(std::string& out, FrameType type, const codec::BufWriter& payload) {
  codec::BufWriter header;
  header.u32(static_cast<std::uint32_t>(payload.size()));
  header.u8(static_cast<std::uint8_t>(type));
  out += header.str_ref();
  out += payload.str_ref();
}

/// Encoded bytes of the smallest window site (empty name, no buckets).
constexpr std::size_t kMinSiteBytes = 8 + 1 + 4 + 2 + 8 * 6 + 4;

/// Decodes one frame payload; throws std::runtime_error on malformed bytes.
Frame decode_payload(FrameType type, const char* data, std::size_t size) {
  static constexpr const char* kNames[] = {"hello frame", "window frame", "alert frame",
                                           "stats frame", "bye frame"};
  const auto index = static_cast<std::size_t>(type) - 1;
  if (index >= std::size(kNames)) {
    throw std::runtime_error(
        support::format("fleet: unknown frame type %u", static_cast<unsigned>(type)));
  }
  codec::SpanReader r(data, size, "fleet", kNames[index]);
  Frame frame;
  switch (type) {
    case FrameType::kHello: {
      HelloFrame f;
      f.version = r.u16();
      f.hdr_sub_bits = r.u8();
      f.hdr_max_exponent = r.u8();
      f.window_ns = r.u64();
      f.host = read_str16(r);
      f.enclave = read_str16(r);
      frame = std::move(f);
      break;
    }
    case FrameType::kWindow: {
      WindowFrame f;
      f.window = codec::read_window(r);
      const std::uint32_t site_count = r.u32();
      r.check_rows(site_count, kMinSiteBytes, "window-site");
      f.sites.reserve(site_count);
      for (std::uint32_t i = 0; i < site_count; ++i) {
        WireSite& s = f.sites.emplace_back();
        s.row.window_index = f.window.window_index;
        s.row.enclave_id = r.u64();
        s.row.type = codec::read_call_type(r);
        s.row.call_id = r.u32();
        s.name = read_str16(r);
        s.row.calls = r.u64();
        s.row.aex_count = r.u64();
        s.row.p50_ns = r.u64();
        s.row.p99_ns = r.u64();
        s.delta_count = r.u64();
        s.delta_sum = r.u64();
        const std::uint32_t pairs = r.u32();
        r.check_rows(pairs, 4 + 8, "bucket");
        s.buckets.reserve(pairs);
        for (std::uint32_t p = 0; p < pairs; ++p) {
          const std::uint32_t bucket = r.u32();
          s.buckets.emplace_back(bucket, r.u64());
        }
      }
      frame = std::move(f);
      break;
    }
    case FrameType::kAlert: {
      AlertFrame f;
      f.resolved = r.u8() != 0;
      f.alert = codec::read_alert(r);
      f.site_name = read_str16(r);
      frame = std::move(f);
      break;
    }
    case FrameType::kStats: {
      StatsFrame f;
      f.events = r.u64();
      f.stream_dropped = r.u64();
      f.sealed_dropped = r.u64();
      f.pending_evicted = r.u64();
      frame = f;
      break;
    }
    case FrameType::kBye:
      frame = ByeFrame{r.u64()};
      break;
  }
  if (r.remaining() != 0) r.fail("trailing bytes");
  return frame;
}

}  // namespace

void encode_magic(std::string& out) {
  codec::BufWriter w;
  w.u32(kWireMagic);
  out += w.str_ref();
}

void encode(std::string& out, const HelloFrame& f) {
  codec::BufWriter p;
  p.u16(f.version);
  p.u8(f.hdr_sub_bits);
  p.u8(f.hdr_max_exponent);
  p.u64(f.window_ns);
  write_str16(p, f.host);
  write_str16(p, f.enclave);
  append_frame(out, FrameType::kHello, p);
}

void encode(std::string& out, const WindowFrame& f) {
  codec::BufWriter p;
  codec::write_window(p, f.window);
  p.u32(static_cast<std::uint32_t>(f.sites.size()));
  for (const auto& s : f.sites) {
    p.u64(s.row.enclave_id);
    p.u8(static_cast<std::uint8_t>(s.row.type));
    p.u32(s.row.call_id);
    write_str16(p, s.name);
    p.u64(s.row.calls);
    p.u64(s.row.aex_count);
    p.u64(s.row.p50_ns);
    p.u64(s.row.p99_ns);
    p.u64(s.delta_count);
    p.u64(s.delta_sum);
    p.u32(static_cast<std::uint32_t>(s.buckets.size()));
    for (const auto& [bucket, count] : s.buckets) {
      p.u32(bucket);
      p.u64(count);
    }
  }
  append_frame(out, FrameType::kWindow, p);
}

void encode(std::string& out, const AlertFrame& f) {
  codec::BufWriter p;
  p.u8(f.resolved ? 1 : 0);
  codec::write_alert(p, f.alert);
  write_str16(p, f.site_name);
  append_frame(out, FrameType::kAlert, p);
}

void encode(std::string& out, const StatsFrame& f) {
  codec::BufWriter p;
  p.u64(f.events);
  p.u64(f.stream_dropped);
  p.u64(f.sealed_dropped);
  p.u64(f.pending_evicted);
  append_frame(out, FrameType::kStats, p);
}

void encode(std::string& out, const ByeFrame& f) {
  codec::BufWriter p;
  p.u64(f.end_ns);
  append_frame(out, FrameType::kBye, p);
}

// --- FrameSink --------------------------------------------------------------

std::shared_ptr<FrameSink> FrameSink::to_string(std::string& out) {
  return std::make_shared<FrameSink>([&out](const char* data, std::size_t size) {
    out.append(data, size);
    return true;
  });
}

void FrameSink::emit(const std::string& bytes) {
  frames_produced_ += 1;
  if (write_ && write_(bytes.data(), bytes.size())) {
    frames_delivered_ += 1;
  } else {
    frames_dropped_ += 1;
  }
}

void FrameSink::fill_ledger(telemetry::Ledger& led) const {
  auto& wire = led.stage("fleet_wire", "frames");
  wire.produced += frames_produced_;
  wire.delivered += frames_delivered_;
  wire.add_drop("consumer_gone", frames_dropped_);
}

void FrameSink::on_session_start(const perf::SessionInfo& info) {
  std::string out;
  encode_magic(out);
  HelloFrame hello;
  hello.hdr_sub_bits = static_cast<std::uint8_t>(telemetry::hdr::kSubBits);
  hello.hdr_max_exponent = static_cast<std::uint8_t>(telemetry::hdr::kMaxExponent);
  hello.window_ns = info.window_ns;
  hello.host = info.identity.host;
  hello.enclave = info.identity.enclave;
  encode(out, hello);
  emit(out);
}

void FrameSink::on_alert(const tracedb::AlertRecord& alert, bool resolved,
                         const std::string& site_name) {
  AlertFrame f;
  f.alert = alert;
  f.resolved = resolved;
  f.site_name = site_name;
  std::string out;
  encode(out, f);
  emit(out);
}

void FrameSink::on_window(const tracedb::WindowRecord& window,
                          const std::vector<perf::SessionWindowSite>& sites) {
  WindowFrame f;
  f.window = window;
  f.sites.reserve(sites.size());
  for (const auto& s : sites) {
    WireSite w;
    w.row = s.row;
    w.name = s.name;
    w.delta_count = s.delta.count();
    w.delta_sum = s.delta.sum();
    const auto& buckets = s.delta.buckets();
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] > 0) w.buckets.emplace_back(static_cast<std::uint32_t>(i), buckets[i]);
    }
    f.sites.push_back(std::move(w));
  }
  std::string out;
  encode(out, f);
  emit(out);
}

void FrameSink::on_stats(const perf::SessionStats& stats) {
  StatsFrame f;
  f.events = stats.events;
  f.stream_dropped = stats.stream_dropped;
  f.sealed_dropped = stats.sealed_dropped;
  f.pending_evicted = stats.pending_evicted;
  std::string out;
  encode(out, f);
  emit(out);
}

void FrameSink::on_finish(std::uint64_t end_ns) {
  ByeFrame f;
  f.end_ns = end_ns;
  std::string out;
  encode(out, f);
  emit(out);
}

// --- FrameParser ------------------------------------------------------------

void FrameParser::fail(std::string message) {
  if (error_.empty()) error_ = std::move(message);
}

void FrameParser::push(const char* data, std::size_t size) {
  if (error()) return;
  buf_.append(data, size);
}

std::optional<Frame> FrameParser::next() {
  if (error()) return std::nullopt;
  // Reclaim the consumed prefix lazily so repeated small pushes stay O(1)
  // amortised.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  codec::SpanReader in(buf_.data() + pos_, buf_.size() - pos_, "fleet", "stream");
  try {
    if (!saw_magic_) {
      if (in.remaining() < 4) return std::nullopt;
      if (in.u32() != kWireMagic) in.fail("bad magic");
      pos_ += 4;
      saw_magic_ = true;
    }
    if (in.remaining() < 5) return std::nullopt;
    const std::uint32_t len = in.u32();
    const auto type = static_cast<FrameType>(in.u8());
    if (len > kMaxPayload) in.fail(support::format("frame payload length %u exceeds limit", len));
    if (in.remaining() < len) return std::nullopt;
    Frame frame = decode_payload(type, in.take(len), len);
    pos_ += 5 + len;
    return frame;
  } catch (const std::runtime_error& e) {
    fail(e.what());
    return std::nullopt;
  }
}

}  // namespace fleet
