// StoreWriter: streaming, crash-safe construction of an SGXSTORE directory.
//
// Event batches are framed into chunks as they arrive: calls are cut every
// chunk_calls rows, and the aex/paging/sync tables are partitioned to the
// same virtual-time boundaries with a stable forward walk — concatenating
// the slices reproduces each input array byte-for-byte, which is what makes
// pack -> unpack lossless even for hand-built, unsorted databases.
//
// Commit order is the crash-safety argument: section files first (each via
// temp+rename, under generation-suffixed names so an existing store's files
// are never touched), the index — which names the files — last, stale files
// only after the new index is durable.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <stdexcept>
#include <string_view>

#include "support/atomic_file.hpp"
#include "support/crc32.hpp"
#include "tracedb/metrics.hpp"
#include "tracedb/store/store.hpp"

namespace tracedb::store {
namespace {

std::string section_file_name(std::uint8_t id, std::uint64_t generation) {
  std::string name = section_file_stem(id);
  if (generation > 0) {
    name += '.';
    name += std::to_string(generation);
  }
  name += ".db";
  return name;
}

}  // namespace

StoreWriter::StoreWriter(std::string dir, WriterOptions options)
    : dir_(std::move(dir)), options_(options) {
  if (options_.chunk_calls == 0) options_.chunk_calls = 1;
  std::filesystem::create_directories(dir_);
  if (is_store(dir_)) {
    try {
      StoreReader old(dir_);
      generation_ = old.generation() + 1;
      for (const auto& s : old.info().sections) stale_files_.push_back(s.file);
    } catch (const std::exception&) {
      // A corrupt index means there is no previous generation to preserve;
      // gen-0 names get atomically replaced file by file.
      generation_ = 0;
    }
  }
}

void StoreWriter::add_events(const std::vector<CallRecord>& calls,
                             const std::vector<AexRecord>& aexs,
                             const std::vector<PagingRecord>& paging,
                             const std::vector<SyncRecord>& syncs) {
  if (calls.empty() && aexs.empty() && paging.empty() && syncs.empty()) return;
  const auto start = std::chrono::steady_clock::now();

  const std::uint64_t batch_rebase = calls_written_;
  const std::size_t chunk_calls = options_.chunk_calls;
  const std::size_t n_chunks = calls.empty() ? 1 : (calls.size() + chunk_calls - 1) / chunk_calls;
  // Each chunk is encoded straight into events_, which grows once here.
  events_.reserve(events_.size() + n_chunks * kChunkFrameBytes +
                  calls.size() * codec::kCallRowBytes + aexs.size() * codec::kAexRowBytes +
                  paging.size() * codec::kPagingRowBytes + syncs.size() * codec::kSyncRowBytes);

  std::size_t ai = 0, pi = 0, si = 0;
  for (std::size_t chunk = 0; chunk < n_chunks; ++chunk) {
    const std::size_t call_begin = chunk * chunk_calls;
    const std::size_t call_end = std::min(call_begin + chunk_calls, calls.size());
    const bool last = chunk + 1 == n_chunks;

    // Auxiliary rows travel with the chunk whose call-time span covers them.
    // The walk is a stable forward partition: every row lands in exactly one
    // chunk, in its original order, regardless of whether the input arrays
    // are time-sorted — so concatenating the slices is the identity.
    std::size_t ae = aexs.size(), pe = paging.size(), se = syncs.size();
    if (!last) {
      const Nanoseconds boundary = calls[call_end].start_ns;
      ae = ai;
      while (ae < aexs.size() && aexs[ae].timestamp_ns < boundary) ++ae;
      pe = pi;
      while (pe < paging.size() && paging[pe].timestamp_ns < boundary) ++pe;
      se = si;
      while (se < syncs.size() && syncs[se].timestamp_ns < boundary) ++se;
    }

    ChunkDirEntry entry;
    entry.call_rebase = batch_rebase;
    encode_chunk(events_, std::span(calls).subspan(call_begin, call_end - call_begin),
                 std::span(aexs).subspan(ai, ae - ai), std::span(paging).subspan(pi, pe - pi),
                 std::span(syncs).subspan(si, se - si), entry);
    chunks_.push_back(entry);
    ai = ae;
    pi = pe;
    si = se;
  }

  calls_written_ += calls.size();
  aexs_written_ += aexs.size();
  paging_written_ += paging.size();
  syncs_written_ += syncs.size();
  db_metrics().store_encode_ns.observe(ns_since(start));
}

void StoreWriter::add_raw_chunk(std::string_view bytes, ChunkDirEntry entry) {
  entry.offset = events_.size();
  entry.length = bytes.size();
  events_.bytes(bytes.data(), bytes.size());
  chunks_.push_back(entry);
  calls_written_ += entry.n_calls;
  aexs_written_ += entry.n_aexs;
  paging_written_ += entry.n_paging;
  syncs_written_ += entry.n_syncs;
}

void StoreWriter::commit(const TraceDatabase& summary) {
  if (committed_) {
    throw std::logic_error("store: StoreWriter::commit() called twice");
  }

  const auto start = std::chrono::steady_clock::now();

  const std::string footer = encode_footer(chunks_);
  const std::uint64_t footer_len = footer.size();
  const std::string meta = encode_meta(summary);
  const std::string profile = encode_profile(summary);
  const std::string alerts = encode_alerts(summary);

  StoreIndex index;
  index.generation = generation_;
  auto add_section = [&](std::uint8_t id, std::initializer_list<std::string_view> parts,
                         std::uint32_t crc, std::vector<std::uint64_t> counts) {
    IndexSection s;
    s.id = id;
    s.file = section_file_name(id, generation_);
    for (const std::string_view part : parts) s.length += part.size();
    s.crc = crc;
    s.counts = std::move(counts);
    support::write_file_atomic(dir_ + "/" + s.file, parts);
    index.sections.push_back(std::move(s));
  };
  add_section(kMetaSection, {meta}, support::crc32(meta.data(), meta.size()),
              meta_counts(summary));
  add_section(kProfileSection, {profile}, support::crc32(profile.data(), profile.size()),
              profile_counts(summary));
  add_section(kAlertsSection, {alerts}, support::crc32(alerts.data(), alerts.size()),
              alert_counts(summary));
  // The events file is the chunks, the footer and the footer's length.  The
  // chunks are most of a store's bytes, so they are written from events_
  // as they lie, not joined with the footer first.
  add_section(kEventsSection,
              {events_.str_ref(), footer,
               std::string_view(reinterpret_cast<const char*>(&footer_len), 8)},
              support::crc32(footer.data(), footer.size()),
              {chunks_.size(), calls_written_, aexs_written_, paging_written_,
               syncs_written_});

  // The index names the new generation's files; once it is in place the old
  // generation is unreachable and safe to delete.
  support::write_file_atomic(dir_ + "/" + kIndexFileName, {encode_index(index)});
  for (const auto& old : stale_files_) {
    bool still_used = false;
    for (const auto& s : index.sections) still_used = still_used || s.file == old;
    if (!still_used) std::remove((dir_ + "/" + old).c_str());
  }
  committed_ = true;
  db_metrics().store_commit_ns.observe(ns_since(start));
}

void pack(const TraceDatabase& db, const std::string& dir, WriterOptions options) {
  StoreWriter w(dir, options);
  w.add_events(db.calls(), db.aexs(), db.paging(), db.syncs());
  w.commit(db);
}

TraceDatabase unpack(const std::string& dir) { return StoreReader(dir).load(kAllSections); }

}  // namespace tracedb::store
