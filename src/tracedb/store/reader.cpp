// StoreReader: lazy, memory-mapped access to an SGXSTORE directory.
//
// Construction reads only store.idx.  Each section file is mmap(2)ed on
// first touch and its checksum verified then — so `sgxperf stats` against a
// store pays for meta+profile+alerts and never faults in the event log.
// The OpenIo counters are maintained precisely for that claim: index bytes,
// plus each mapped section's payload, plus (for events) the footer and every
// chunk actually decoded.
#include <sys/stat.h>

#include <cstring>
#include <stdexcept>

#include "support/crc32.hpp"
#include "tracedb/store/store.hpp"

namespace tracedb::store {
namespace {

/// Grows each event table of `db` once, to hold its rows plus those of every
/// chunk `selected` accepts.  parse_footer() has bounded the counts by the
/// chunk bytes, and one exact reserve per table keeps the load linear: a
/// reserve per chunk would copy the tables once per chunk.
template <class Selected>
void reserve_events(TraceDatabase& db, const std::vector<ChunkDirEntry>& chunks,
                    Selected selected) {
  std::uint64_t calls = 0, aexs = 0, paging = 0, syncs = 0;
  for (const auto& entry : chunks) {
    if (!selected(entry)) continue;
    calls += entry.n_calls;
    aexs += entry.n_aexs;
    paging += entry.n_paging;
    syncs += entry.n_syncs;
  }
  RawTables::calls(db).reserve(db.calls().size() + calls);
  RawTables::aexs(db).reserve(db.aexs().size() + aexs);
  RawTables::paging(db).reserve(db.paging().size() + paging);
  RawTables::syncs(db).reserve(db.syncs().size() + syncs);
}

}  // namespace

bool is_store(const std::string& path) {
  struct stat st{};
  if (::stat((path + "/" + kIndexFileName).c_str(), &st) != 0) return false;
  return S_ISREG(st.st_mode);
}

StoreReader::StoreReader(std::string dir) : dir_(std::move(dir)) {
  const codec::MappedFile file(dir_ + "/" + kIndexFileName, "store", "index file");
  index_ = parse_index({file.data(), file.size()});
  io_.bytes_read = file.size();
  io_.total_bytes = file.size();
  for (const auto& s : index_.sections) io_.total_bytes += s.length;
}

const IndexSection& StoreReader::require(std::uint8_t id) const {
  const IndexSection* s = index_.find(id);
  if (s == nullptr) {
    throw std::runtime_error("store: missing " + std::string(section_name(id)) +
                             " section in " + dir_);
  }
  return *s;
}

const codec::MappedFile& StoreReader::map_section(const IndexSection& s) {
  if (maps_[s.id]) return *maps_[s.id];

  auto m = std::make_unique<codec::MappedFile>(dir_ + "/" + s.file, "store", "section file");
  if (s.offset > m->size() || s.length > m->size() - s.offset) {
    throw std::runtime_error("store: truncated section file " + s.file);
  }
  // Non-event sections are verified whole on first touch; the events section
  // checksums its footer in ensure_footer() and each chunk on chunk load.
  if (s.id != kEventsSection) {
    if (support::crc32(m->data() + s.offset, s.length) != s.crc) {
      throw std::runtime_error("store: section checksum mismatch in " + s.file);
    }
    io_.bytes_read += s.length;
    io_.sections_loaded.emplace_back(section_name(s.id));
  }
  maps_[s.id] = std::move(m);
  return *maps_[s.id];
}

void StoreReader::ensure_footer() {
  if (footer_parsed_) return;
  const IndexSection& s = require(kEventsSection);
  const codec::MappedFile& m = map_section(s);
  // Minimum layout: an empty footer (magic + zero count, 12 bytes) plus the
  // trailing footer-length word — a zero-chunk store is valid.
  if (s.length < 20) {
    throw std::runtime_error("store: truncated event section");
  }
  std::uint64_t footer_len;
  std::memcpy(&footer_len, m.data() + s.offset + s.length - 8, 8);
  if (footer_len > s.length - 8) {
    throw std::runtime_error("store: truncated event section");
  }
  const char* footer = m.data() + s.offset + s.length - 8 - footer_len;
  if (support::crc32(footer, footer_len) != s.crc) {
    throw std::runtime_error("store: section checksum mismatch in " + s.file);
  }
  const std::uint64_t chunk_area = s.length - 8 - footer_len;
  chunks_ = parse_footer(footer, footer_len, chunk_area);
  footer_parsed_ = true;
  io_.bytes_read += footer_len + 8;
  io_.sections_loaded.emplace_back(section_name(kEventsSection));
}

const std::vector<ChunkDirEntry>& StoreReader::chunk_directory() {
  ensure_footer();
  return chunks_;
}

std::string_view StoreReader::chunk_bytes(const ChunkDirEntry& entry) {
  ensure_footer();
  const IndexSection& s = require(kEventsSection);
  const codec::MappedFile& m = map_section(s);
  const char* data = m.data() + s.offset + entry.offset;
  if (entry.length < 4 || support::crc32(data, entry.length - 4) != entry.crc) {
    throw std::runtime_error("store: event chunk checksum mismatch");
  }
  io_.bytes_read += entry.length;
  return {data, static_cast<std::size_t>(entry.length)};
}

TraceDatabase StoreReader::load(unsigned mask) {
  TraceDatabase db;
  const struct {
    unsigned bit;
    std::uint8_t id;
    void (*decode)(codec::SpanReader&, TraceDatabase&);
  } summaries[] = {{kSectionMeta, kMetaSection, decode_meta},
                   {kSectionProfile, kProfileSection, decode_profile},
                   {kSectionAlerts, kAlertsSection, decode_alerts}};
  for (const auto& section : summaries) {
    if ((mask & section.bit) == 0) continue;
    const IndexSection& s = require(section.id);
    const codec::MappedFile& m = map_section(s);
    codec::SpanReader r(m.data() + s.offset, s.length, "store",
                        std::string(section_name(section.id)) + " section " + s.file);
    section.decode(r, db);
  }
  if ((mask & kSectionEvents) != 0) {
    ensure_footer();
    const IndexSection& s = require(kEventsSection);
    const codec::MappedFile& m = map_section(s);
    reserve_events(db, chunks_, [](const ChunkDirEntry&) { return true; });
    for (const auto& entry : chunks_) {
      decode_chunk(m.data() + s.offset + entry.offset, entry.length, entry, db,
                   /*whole_table=*/true);
      io_.bytes_read += entry.length;
    }
  }
  return db;
}

void StoreReader::load_events_overlapping(TraceDatabase& db, Nanoseconds from_ns,
                                          Nanoseconds to_ns, std::int64_t thread) {
  ensure_footer();
  const IndexSection& s = require(kEventsSection);
  const codec::MappedFile& m = map_section(s);
  const auto selected = [&](const ChunkDirEntry& entry) {
    const bool has_rows =
        entry.n_calls + entry.n_aexs + entry.n_paging + entry.n_syncs > 0;
    if (!has_rows) return false;
    if (entry.max_ns < from_ns || entry.min_ns > to_ns) return false;
    return thread < 0 || (static_cast<std::int64_t>(entry.thread_max) >= thread &&
                          static_cast<std::int64_t>(entry.thread_min) <= thread);
  };
  reserve_events(db, chunks_, selected);
  for (const auto& entry : chunks_) {
    if (!selected(entry)) continue;
    decode_chunk(m.data() + s.offset + entry.offset, entry.length, entry, db,
                 /*whole_table=*/false);
    io_.bytes_read += entry.length;
  }
}

StoreInfo StoreReader::info() {
  StoreInfo out;
  out.generation = index_.generation;
  out.payload_version = index_.payload_version;
  out.total_bytes = io_.total_bytes;
  for (const auto& s : index_.sections) {
    SectionInfo sec;
    sec.name = section_name(s.id);
    sec.file = s.file;
    sec.length = s.length;
    sec.crc = s.crc;
    sec.counts = s.counts;
    if (s.id == kEventsSection && !s.counts.empty()) out.event_chunks = s.counts[0];
    out.sections.push_back(std::move(sec));
  }
  return out;
}

}  // namespace tracedb::store
