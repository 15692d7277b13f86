// On-disk format of the SGXSTORE multi-file trace database (internal).
//
// A store is a *directory* in the spirit of an HPCToolkit database
// (meta.db / profile.db / trace.db):
//
//   X.store/
//   |-- store.idx    index header: section table with per-section file name,
//   |                payload offset, length, CRC32 and row counts, plus a
//   |                commit generation and a trailing self-CRC
//   |-- meta.db      enclaves, call names, order rules, scalar counters
//   |-- profile.db   per-site HDR latency table, metric series/samples,
//   |                window snapshots and per-site window rows
//   |-- alerts.db    the alert history
//   `-- events.db    framed chunks of the four event tables (calls, AEXs,
//                    paging, syncs) + a footer directory keyed by virtual-
//                    time range and thread range, so readers can load only
//                    the chunks a query touches
//
// This file owns the framing: the index, the event-chunk header and
// footer, and which tables each section holds in which order.  The rows
// themselves, and their validation, come from the row codec the flat file
// uses too (tracedb/codec.hpp), so a store and a flat trace of the same
// database carry the same row bytes.  Sections are independently
// checksummed and independently loadable; each event chunk carries its own
// CRC32 so a partial load never trusts unverified bytes.
//
// Rewrites are crash-safe by construction: section files are committed under
// generation-suffixed names via temp+rename, and the index — which names the
// files — is renamed into place last.  A crash leaves either the old index
// (its files untouched) or the new one (its files fully committed).
//
// Unknown section ids are skipped on read (forward compatibility); every
// recognised structural defect is rejected with a distinct error and no
// partially-populated database escapes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tracedb/codec.hpp"
#include "tracedb/database.hpp"

namespace tracedb::store {

inline constexpr char kIndexMagic[8] = {'S', 'G', 'X', 'S', 'T', 'O', 'R', 'E'};
inline constexpr std::uint32_t kStoreVersion = 1;
/// Flat-format version whose rows the sections carry; the only one accepted.
inline constexpr std::uint8_t kPayloadVersion = 6;
inline constexpr const char* kIndexFileName = "store.idx";

inline constexpr std::uint32_t kChunkMagic = 0x43455853;   // "SXEC"
inline constexpr std::uint32_t kFooterMagic = 0x44455853;  // "SXED"

/// Section ids are pinned (persisted as a byte).  Readers skip unknown ids.
enum SectionId : std::uint8_t {
  kMetaSection = 0,
  kProfileSection = 1,
  kAlertsSection = 2,
  kEventsSection = 3,
};

[[nodiscard]] const char* section_name(std::uint8_t id);
[[nodiscard]] const char* section_file_stem(std::uint8_t id);

/// One row of the index's section table.  `counts` is a per-section list of
/// table row counts (self-describing, so unknown sections stay parseable):
///   meta:    {enclaves, call_names, order_rules}
///   profile: {latencies, metric_series, metric_samples, windows, window_sites}
///   alerts:  {alerts}
///   events:  {chunks, calls, aexs, paging, syncs}
struct IndexSection {
  std::uint8_t id = 0;
  std::string file;               // name relative to the store directory
  std::uint64_t offset = 0;       // payload offset inside the file (currently 0)
  std::uint64_t length = 0;       // payload bytes
  std::uint32_t crc = 0;          // CRC32 of the payload (events: of the footer)
  std::vector<std::uint64_t> counts;
};

struct StoreIndex {
  std::uint32_t version = kStoreVersion;
  std::uint8_t payload_version = kPayloadVersion;
  std::uint64_t generation = 0;   // bumped on every in-place rewrite
  std::vector<IndexSection> sections;

  [[nodiscard]] const IndexSection* find(std::uint8_t id) const noexcept;
};

[[nodiscard]] std::string encode_index(const StoreIndex& index);
/// Parses and validates `bytes` (magic, version, bounds, trailing self-CRC).
[[nodiscard]] StoreIndex parse_index(std::string_view bytes);

/// One entry of the event-section footer directory.  `call_rebase` is added
/// to every non-negative CallIndex reference (CallRecord::parent,
/// AexRecord::during_call) when the chunk is loaded — compaction shifts it
/// instead of rewriting chunk payloads.
struct ChunkDirEntry {
  std::uint64_t offset = 0;       // chunk start inside events.db
  std::uint64_t length = 0;       // chunk bytes (magic..crc inclusive)
  std::uint32_t crc = 0;          // CRC32 of the chunk bytes before the crc field
  std::uint64_t call_rebase = 0;
  std::uint64_t n_calls = 0;
  std::uint64_t n_aexs = 0;
  std::uint64_t n_paging = 0;
  std::uint64_t n_syncs = 0;
  Nanoseconds min_ns = 0;         // over every row in the chunk
  Nanoseconds max_ns = 0;
  ThreadId thread_min = 0;        // over rows that carry a thread id
  ThreadId thread_max = 0;
};

[[nodiscard]] std::string encode_footer(const std::vector<ChunkDirEntry>& chunks);
/// Parses the footer span of an events file; `file_size` bounds the chunk
/// extents ("truncated event chunk" is rejected here), their sum, and each
/// chunk's row counts, which may not need more bytes than the chunk holds.
[[nodiscard]] std::vector<ChunkDirEntry> parse_footer(const char* data, std::size_t size,
                                                      std::uint64_t file_size);

// --- raw table access -------------------------------------------------------

/// The store subsystem's keyhole into TraceDatabase's private tables: pack
/// reads through the public accessors, but unpack must restore rows (and the
/// scalar counters) exactly, without the id-reassignment or locking of the
/// public mutators.
struct RawTables {
  static std::vector<CallRecord>& calls(TraceDatabase& db) { return db.calls_; }
  static std::vector<AexRecord>& aexs(TraceDatabase& db) { return db.aexs_; }
  static std::vector<PagingRecord>& paging(TraceDatabase& db) { return db.paging_; }
  static std::vector<SyncRecord>& syncs(TraceDatabase& db) { return db.syncs_; }
  static std::vector<EnclaveRecord>& enclaves(TraceDatabase& db) { return db.enclaves_; }
  static std::vector<CallNameRecord>& call_names(TraceDatabase& db) { return db.call_names_; }
  static std::vector<MetricSeriesRecord>& metric_series(TraceDatabase& db) {
    return db.metric_series_;
  }
  static std::vector<MetricSampleRecord>& metric_samples(TraceDatabase& db) {
    return db.metric_samples_;
  }
  static std::vector<LatencyRecord>& latencies(TraceDatabase& db) { return db.latencies_; }
  static std::vector<WindowRecord>& windows(TraceDatabase& db) { return db.windows_; }
  static std::vector<WindowSiteRecord>& window_sites(TraceDatabase& db) {
    return db.window_sites_;
  }
  static std::vector<AlertRecord>& alerts(TraceDatabase& db) { return db.alerts_; }
  static std::vector<OrderRuleRecord>& order_rules(TraceDatabase& db) {
    return db.order_rules_;
  }
  static Nanoseconds& window_period(TraceDatabase& db) { return db.window_period_; }
  static std::uint64_t& dropped_events(TraceDatabase& db) { return db.dropped_events_; }
  static std::uint64_t& stream_dropped(TraceDatabase& db) { return db.stream_dropped_; }
};

// --- section payload codecs -------------------------------------------------

[[nodiscard]] std::string encode_meta(const TraceDatabase& db);
[[nodiscard]] std::string encode_profile(const TraceDatabase& db);
[[nodiscard]] std::string encode_alerts(const TraceDatabase& db);

void decode_meta(codec::SpanReader& r, TraceDatabase& db);
void decode_profile(codec::SpanReader& r, TraceDatabase& db);
void decode_alerts(codec::SpanReader& r, TraceDatabase& db);

/// Row counts for the index section table (see IndexSection::counts).
[[nodiscard]] std::vector<std::uint64_t> meta_counts(const TraceDatabase& db);
[[nodiscard]] std::vector<std::uint64_t> profile_counts(const TraceDatabase& db);
[[nodiscard]] std::vector<std::uint64_t> alert_counts(const TraceDatabase& db);

/// Event chunk bytes around the rows: magic, the four row counts, trailing CRC.
inline constexpr std::size_t kChunkFrameBytes = 4 + 4 * 8 + 4;

/// Appends one event chunk (magic, row counts, rows, trailing CRC32) to `w`
/// and fills `entry`; its offset is where the chunk starts in `w`.
void encode_chunk(codec::BufWriter& w, std::span<const CallRecord> calls,
                  std::span<const AexRecord> aexs, std::span<const PagingRecord> paging,
                  std::span<const SyncRecord> syncs, ChunkDirEntry& entry);

/// Verifies `entry.crc` over the chunk bytes and appends the rows to `db`,
/// shifting CallIndex references by `entry.call_rebase` — the complete
/// shift; the number of calls already in `db` is not added.  Set
/// `whole_table` when every chunk is decoded in directory order: call
/// parents are then checked against the rows before them.
void decode_chunk(const char* data, std::size_t size, const ChunkDirEntry& entry,
                  TraceDatabase& db, bool whole_table);

}  // namespace tracedb::store
