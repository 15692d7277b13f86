// SGXSTORE framing: index header, event chunks and their footer directory,
// and the table sequence of each section.  Rows are laid out and validated
// by the shared row codec (tracedb/codec.hpp).
#include "tracedb/store/format.hpp"

#include <cstring>
#include <stdexcept>

#include "support/crc32.hpp"

namespace tracedb::store {
namespace {

using codec::BufWriter;
using codec::SpanReader;

constexpr std::size_t kMinIndexBytes = 8 /*magic*/ + 4 /*version*/ + 1 /*payload*/ +
                                       8 /*generation*/ + 4 /*n_sections*/ + 4 /*self-crc*/;

}  // namespace

const char* section_name(std::uint8_t id) {
  switch (id) {
    case kMetaSection: return "meta";
    case kProfileSection: return "profile";
    case kAlertsSection: return "alerts";
    case kEventsSection: return "events";
    default: return "unknown";
  }
}

const char* section_file_stem(std::uint8_t id) { return section_name(id); }

const IndexSection* StoreIndex::find(std::uint8_t id) const noexcept {
  for (const auto& s : sections) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

std::string encode_index(const StoreIndex& index) {
  BufWriter w;
  w.bytes(kIndexMagic, sizeof(kIndexMagic));
  w.u32(index.version);
  w.u8(index.payload_version);
  w.u64(index.generation);
  w.u32(static_cast<std::uint32_t>(index.sections.size()));
  for (const auto& s : index.sections) {
    w.u8(s.id);
    w.str(s.file);
    w.u64(s.offset);
    w.u64(s.length);
    w.u32(static_cast<std::uint32_t>(s.counts.size()));
    for (const std::uint64_t c : s.counts) w.u64(c);
    w.u32(s.crc);
  }
  const std::uint32_t self = support::crc32(w.str_ref().data(), w.size());
  w.u32(self);
  return w.take();
}

StoreIndex parse_index(std::string_view bytes) {
  if (bytes.size() < 8) {
    throw std::runtime_error("store: truncated index header");
  }
  if (std::memcmp(bytes.data(), kIndexMagic, 8) != 0) {
    throw std::runtime_error("store: bad index magic");
  }
  if (bytes.size() < kMinIndexBytes) {
    throw std::runtime_error("store: truncated index header");
  }
  std::uint32_t trailing;
  std::memcpy(&trailing, bytes.data() + bytes.size() - 4, 4);
  if (support::crc32(bytes.data(), bytes.size() - 4) != trailing) {
    throw std::runtime_error("store: index checksum mismatch");
  }

  SpanReader r(bytes.data() + 8, bytes.size() - 8 - 4, "store", "index header");
  StoreIndex index;
  index.version = r.u32();
  if (index.version != kStoreVersion) {
    throw std::runtime_error("store: unsupported store version " +
                             std::to_string(index.version));
  }
  index.payload_version = r.u8();
  if (index.payload_version != kPayloadVersion) {
    throw std::runtime_error("store: unsupported payload version " +
                             std::to_string(index.payload_version));
  }
  index.generation = r.u64();
  const std::uint32_t n_sections = r.u32();
  if (n_sections > 256) {
    throw std::runtime_error("store: implausible section count in index header");
  }
  index.sections.reserve(n_sections);
  for (std::uint32_t i = 0; i < n_sections; ++i) {
    IndexSection s;
    s.id = r.u8();
    s.file = r.str();
    if (s.file.empty() || s.file.find('/') != std::string::npos ||
        s.file.find("..") != std::string::npos) {
      throw std::runtime_error("store: bad section file name in index header");
    }
    s.offset = r.u64();
    s.length = r.u64();
    const std::uint32_t n_counts = r.u32();
    if (n_counts > 64) {
      throw std::runtime_error("store: implausible section count list in index header");
    }
    s.counts.reserve(n_counts);
    for (std::uint32_t c = 0; c < n_counts; ++c) s.counts.push_back(r.u64());
    s.crc = r.u32();
    index.sections.push_back(std::move(s));
  }
  return index;
}

// --- events footer ----------------------------------------------------------

std::string encode_footer(const std::vector<ChunkDirEntry>& chunks) {
  BufWriter w;
  w.u32(kFooterMagic);
  w.u64(chunks.size());
  for (const auto& c : chunks) {
    w.u64(c.offset);
    w.u64(c.length);
    w.u32(c.crc);
    w.u64(c.call_rebase);
    w.u64(c.n_calls);
    w.u64(c.n_aexs);
    w.u64(c.n_paging);
    w.u64(c.n_syncs);
    w.u64(c.min_ns);
    w.u64(c.max_ns);
    w.u32(c.thread_min);
    w.u32(c.thread_max);
  }
  return w.take();
}

std::vector<ChunkDirEntry> parse_footer(const char* data, std::size_t size,
                                        std::uint64_t file_size) {
  SpanReader r(data, size, "store", "event footer");
  if (r.u32() != kFooterMagic) {
    throw std::runtime_error("store: bad event footer magic");
  }
  const std::uint64_t n = r.u64();
  r.check_rows(n, 8 * 9 + 4 * 3, "chunk");
  std::vector<ChunkDirEntry> chunks;
  chunks.reserve(n);
  std::uint64_t chunks_total = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    ChunkDirEntry c;
    c.offset = r.u64();
    c.length = r.u64();
    c.crc = r.u32();
    c.call_rebase = r.u64();
    c.n_calls = r.u64();
    c.n_aexs = r.u64();
    c.n_paging = r.u64();
    c.n_syncs = r.u64();
    c.min_ns = r.u64();
    c.max_ns = r.u64();
    c.thread_min = r.u32();
    c.thread_max = r.u32();
    if (c.offset > file_size || c.length > file_size - c.offset) {
      throw std::runtime_error("store: truncated event chunk");
    }
    // The reader reserves its event tables from these counts before it
    // decodes a chunk, so bound them by the bytes that must back them: each
    // chunk's rows by its length, and the chunks together by the chunk area.
    if (c.length > file_size - chunks_total) {
      throw std::runtime_error("store: implausible event chunk extents");
    }
    chunks_total += c.length;
    if (c.n_calls > codec::kMaxRows || c.n_aexs > codec::kMaxRows ||
        c.n_paging > codec::kMaxRows || c.n_syncs > codec::kMaxRows ||
        kChunkFrameBytes + c.n_calls * codec::kCallRowBytes + c.n_aexs * codec::kAexRowBytes +
                c.n_paging * codec::kPagingRowBytes + c.n_syncs * codec::kSyncRowBytes >
            c.length) {
      throw std::runtime_error("store: implausible event chunk row counts");
    }
    chunks.push_back(c);
  }
  return chunks;
}

// --- summary sections ---------------------------------------------------------

std::string encode_meta(const TraceDatabase& db) {
  BufWriter w;
  w.u64(db.window_period());
  w.u64(db.dropped_events());
  w.u64(db.stream_dropped());
  codec::write_enclaves(w, db.enclaves());
  codec::write_call_names(w, db.call_names());
  codec::write_order_rules(w, db.order_rules());
  return w.take();
}

void decode_meta(SpanReader& r, TraceDatabase& db) {
  RawTables::window_period(db) = r.u64();
  RawTables::dropped_events(db) = r.u64();
  RawTables::stream_dropped(db) = r.u64();
  codec::read_enclaves(r, RawTables::enclaves(db));
  codec::read_call_names(r, RawTables::call_names(db));
  codec::read_order_rules(r, RawTables::order_rules(db));
}

std::vector<std::uint64_t> meta_counts(const TraceDatabase& db) {
  return {db.enclaves().size(), db.call_names().size(), db.order_rules().size()};
}

std::string encode_profile(const TraceDatabase& db) {
  BufWriter w;
  codec::write_latencies(w, db.latencies());
  codec::write_metric_series(w, db.metric_series());
  codec::write_metric_samples(w, db.metric_samples());
  codec::write_windows(w, db.windows());
  codec::write_window_sites(w, db.window_sites());
  return w.take();
}

void decode_profile(SpanReader& r, TraceDatabase& db) {
  codec::read_latencies(r, RawTables::latencies(db));
  codec::read_metric_series(r, RawTables::metric_series(db));
  codec::read_metric_samples(r, RawTables::metric_samples(db));
  codec::read_windows(r, RawTables::windows(db));
  codec::read_window_sites(r, RawTables::window_sites(db), db.windows().size());
}

std::vector<std::uint64_t> profile_counts(const TraceDatabase& db) {
  return {db.latencies().size(), db.metric_series().size(), db.metric_samples().size(),
          db.windows().size(), db.window_sites().size()};
}

std::string encode_alerts(const TraceDatabase& db) {
  BufWriter w;
  codec::write_alerts(w, db.alerts());
  return w.take();
}

void decode_alerts(SpanReader& r, TraceDatabase& db) {
  codec::read_alerts(r, RawTables::alerts(db));
}

std::vector<std::uint64_t> alert_counts(const TraceDatabase& db) {
  return {db.alerts().size()};
}

// --- event chunks -----------------------------------------------------------

void encode_chunk(BufWriter& w, std::span<const CallRecord> calls,
                  std::span<const AexRecord> aexs, std::span<const PagingRecord> paging,
                  std::span<const SyncRecord> syncs, ChunkDirEntry& entry) {
  entry.offset = w.size();
  w.u32(kChunkMagic);
  w.u64(calls.size());
  w.u64(aexs.size());
  w.u64(paging.size());
  w.u64(syncs.size());
  codec::write_calls(w, calls);
  codec::write_aexs(w, aexs);
  codec::write_paging(w, paging);
  codec::write_syncs(w, syncs);

  bool have_ts = false, have_thread = false;
  auto note_ts = [&](Nanoseconds ts) {
    if (!have_ts || ts < entry.min_ns) entry.min_ns = ts;
    if (!have_ts || ts > entry.max_ns) entry.max_ns = ts;
    have_ts = true;
  };
  auto note_thread = [&](ThreadId t) {
    if (!have_thread || t < entry.thread_min) entry.thread_min = t;
    if (!have_thread || t > entry.thread_max) entry.thread_max = t;
    have_thread = true;
  };
  for (const auto& c : calls) {
    note_ts(c.start_ns);
    note_ts(c.end_ns);
    note_thread(c.thread_id);
  }
  for (const auto& a : aexs) {
    note_ts(a.timestamp_ns);
    note_thread(a.thread_id);
  }
  for (const auto& p : paging) note_ts(p.timestamp_ns);
  for (const auto& s : syncs) {
    note_ts(s.timestamp_ns);
    note_thread(s.thread_id);
  }

  entry.crc = support::crc32(w.str_ref().data() + entry.offset, w.size() - entry.offset);
  w.u32(entry.crc);
  entry.n_calls = calls.size();
  entry.n_aexs = aexs.size();
  entry.n_paging = paging.size();
  entry.n_syncs = syncs.size();
  entry.length = w.size() - entry.offset;
}

void decode_chunk(const char* data, std::size_t size, const ChunkDirEntry& entry,
                  TraceDatabase& db, bool whole_table) {
  if (size < 4) {
    throw std::runtime_error("store: truncated event chunk");
  }
  if (support::crc32(data, size - 4) != entry.crc) {
    throw std::runtime_error("store: event chunk checksum mismatch");
  }
  std::uint32_t trailing;
  std::memcpy(&trailing, data + size - 4, 4);
  if (trailing != entry.crc) {
    throw std::runtime_error("store: event chunk checksum mismatch");
  }

  SpanReader r(data, size - 4, "store", "event chunk");
  if (r.u32() != kChunkMagic) {
    throw std::runtime_error("store: bad event chunk magic");
  }
  const std::uint64_t n_calls = r.u64();
  const std::uint64_t n_aexs = r.u64();
  const std::uint64_t n_paging = r.u64();
  const std::uint64_t n_syncs = r.u64();
  if (n_calls != entry.n_calls || n_aexs != entry.n_aexs || n_paging != entry.n_paging ||
      n_syncs != entry.n_syncs) {
    throw std::runtime_error("store: event chunk row counts disagree with directory");
  }
  const auto rebase = static_cast<CallIndex>(entry.call_rebase);
  codec::read_calls(r, n_calls, RawTables::calls(db), rebase, whole_table);
  codec::read_aexs(r, n_aexs, RawTables::aexs(db), rebase);
  codec::read_paging(r, n_paging, RawTables::paging(db));
  codec::read_syncs(r, n_syncs, RawTables::syncs(db));
}

}  // namespace tracedb::store
