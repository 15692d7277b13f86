// SGXSTORE: the multi-file trace database (public API of src/tracedb/store).
//
// Motivation (ROADMAP "fleet-scale trace store"): the flat SGXPTRC6 file is
// one payload — `sgxperf stats` on a 2 GB trace reads 2 GB even though the
// summary it prints derives from a few hundred kilobytes of per-site
// aggregate.  A store splits the payload into independently addressable,
// independently checksummed sections so summary consumers map meta+profile+
// alerts and never touch the event log, and the fleet serve daemon can fold
// checkpoints together without rewriting event bytes.  Conversion to and
// from the flat format is lossless in both directions.
//
// See format.hpp for the on-disk layout.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "tracedb/database.hpp"
#include "tracedb/store/format.hpp"

namespace tracedb::store {

// Section selection masks for StoreReader::load().
inline constexpr unsigned kSectionMeta = 1u << 0;
inline constexpr unsigned kSectionProfile = 1u << 1;
inline constexpr unsigned kSectionAlerts = 1u << 2;
inline constexpr unsigned kSectionEvents = 1u << 3;
inline constexpr unsigned kAllSections =
    kSectionMeta | kSectionProfile | kSectionAlerts | kSectionEvents;
/// What the stats / analyzer-summary paths need: everything but the event
/// log.  (The analyser synthesises per-site stats rows from the latency
/// table when the call table is empty, so summaries stay complete.)
inline constexpr unsigned kSummarySections = kSectionMeta | kSectionProfile | kSectionAlerts;

/// True if `path` is a store directory (contains a store.idx).
[[nodiscard]] bool is_store(const std::string& path);

/// I/O accounting for one open: how many bytes of the store were actually
/// read versus its total size.  `sgxperf stats --json` surfaces this so the
/// lazy-loading claim is measurable, not aspirational.
struct OpenIo {
  std::uint64_t total_bytes = 0;  // index + every section payload
  std::uint64_t bytes_read = 0;   // index + sections (events: footer + loaded chunks)
  std::vector<std::string> sections_loaded;
};

struct SectionInfo {
  std::string name;   // "meta", "profile", ... or "unknown" for skipped ids
  std::string file;
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
  std::vector<std::uint64_t> counts;
};

struct StoreInfo {
  std::uint64_t generation = 0;
  std::uint8_t payload_version = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t event_chunks = 0;
  std::vector<SectionInfo> sections;
};

struct WriterOptions {
  /// Calls per event chunk; smaller chunks mean finer-grained lazy loads at
  /// the cost of more framing.  4096 keeps chunks around 200 KB.
  std::size_t chunk_calls = 4096;
};

/// Lazy, memory-mapping reader.  Construction parses and validates only the
/// index header; section files are mapped (and their checksums verified) on
/// first touch.  Not thread-safe; not copyable.
class StoreReader {
 public:
  explicit StoreReader(std::string dir);

  /// Loads the selected sections into a fresh database.  Sections absent
  /// from the mask cost zero reads; unknown section ids in the index are
  /// skipped.  Throws on any structural defect — never returns a partially
  /// populated database.
  [[nodiscard]] TraceDatabase load(unsigned mask = kAllSections);

  /// Appends to `db` only the event chunks whose virtual-time range
  /// intersects [from_ns, to_ns] (and, when `thread` is non-negative, whose
  /// thread range covers it).  `db` should already hold the meta section if
  /// call names matter to the caller.
  void load_events_overlapping(TraceDatabase& db, Nanoseconds from_ns, Nanoseconds to_ns,
                               std::int64_t thread = -1);

  [[nodiscard]] StoreInfo info();
  [[nodiscard]] const OpenIo& io() const noexcept { return io_; }
  [[nodiscard]] std::uint64_t generation() const noexcept { return index_.generation; }

  /// Raw access to the event chunk directory and bytes (compaction copies
  /// chunks verbatim).  chunk_bytes() verifies the per-chunk checksum.
  [[nodiscard]] const std::vector<ChunkDirEntry>& chunk_directory();
  [[nodiscard]] std::string_view chunk_bytes(const ChunkDirEntry& entry);

 private:
  [[nodiscard]] const IndexSection& require(std::uint8_t id) const;
  /// Maps a section file (first touch verifies the section checksum; the
  /// events section checksums its footer here and its chunks on chunk load).
  [[nodiscard]] const codec::MappedFile& map_section(const IndexSection& s);
  void ensure_footer();

  std::string dir_;
  StoreIndex index_;
  OpenIo io_;
  std::unique_ptr<codec::MappedFile> maps_[4];
  std::vector<ChunkDirEntry> chunks_;
  bool footer_parsed_ = false;
};

/// Streaming writer.  Event batches are framed into chunks as they arrive;
/// commit() writes the summary sections and the index.  Every file is
/// committed via temp+rename, generation-suffixed when replacing an existing
/// store, and the index goes last — a crash leaves the previous store intact.
class StoreWriter {
 public:
  explicit StoreWriter(std::string dir, WriterOptions options = {});

  /// Frames one batch of event rows into chunks.  CallIndex references
  /// (parent / during_call) must be batch-relative; the writer records the
  /// batch's global rebase in each chunk directory entry.
  void add_events(const std::vector<CallRecord>& calls, const std::vector<AexRecord>& aexs,
                  const std::vector<PagingRecord>& paging,
                  const std::vector<SyncRecord>& syncs);

  /// Appends an already-encoded chunk verbatim (compaction).  `entry.offset`
  /// is reassigned; `entry.call_rebase` must already be output-global.
  void add_raw_chunk(std::string_view bytes, ChunkDirEntry entry);

  /// Number of event calls framed so far (the rebase for the next batch).
  [[nodiscard]] std::uint64_t calls_written() const noexcept { return calls_written_; }

  /// Writes meta/profile/alerts from `summary` (its event tables are ignored
  /// — events come from add_events/add_raw_chunk) plus footer and index, all
  /// atomically, then deletes superseded section files of the old generation.
  void commit(const TraceDatabase& summary);

 private:
  std::string dir_;
  WriterOptions options_;
  std::uint64_t generation_ = 0;
  std::vector<std::string> stale_files_;  // previous generation, removed on commit
  codec::BufWriter events_;               // framed chunks, accumulated
  std::vector<ChunkDirEntry> chunks_;
  std::uint64_t calls_written_ = 0;
  std::uint64_t aexs_written_ = 0;
  std::uint64_t paging_written_ = 0;
  std::uint64_t syncs_written_ = 0;
  bool committed_ = false;
};

/// Packs a fully-loaded database into a store directory (lossless).
void pack(const TraceDatabase& db, const std::string& dir, WriterOptions options = {});

/// Loads every section of a store back into a database (lossless inverse).
[[nodiscard]] TraceDatabase unpack(const std::string& dir);

/// Folds several inputs — store directories or flat trace files — into one
/// store at `out_dir`.  Summary tables are merged (histograms summed,
/// windows re-indexed, metric series unioned, scalar counters added); event
/// chunks from store inputs are copied verbatim with only their directory
/// rebase shifted.  Inputs are folded in argument order.
void compact(const std::vector<std::string>& inputs, const std::string& out_dir,
             WriterOptions options = {});

}  // namespace tracedb::store
