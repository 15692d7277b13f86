// Parallel k-way merge for shard stitching.
//
// Logger::detach() folds every per-thread event shard into the central
// tables in one global time order.  The seed implementation concatenated
// all (shard, index) pairs and ran one std::sort — O(N log N) comparisons
// on a single core, which dominates detach() for large traces.  This
// replaces it with the classic external-merge structure:
//
//   1. sort each shard's records by key (parallel across shards; shards
//      are nearly time-ordered already, so this pass is cheap, and a shard
//      whose keys are in order skips it),
//   2. split the key range at sampled splitters into one contiguous
//      segment per worker,
//   3. each worker merges its segment with a tournament (loser) tree —
//      k-way, one comparison per emitted record against log2(k) internal
//      nodes instead of a heap's log2(k) swaps.
//
// Output is *byte-identical* to the sequential sort: the comparator is the
// same total order (key, shard id, append index) in both paths, segments
// partition by key alone so a tie can never straddle a boundary, and
// `threads == 1` short-circuits to a single segment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tracedb/schema.hpp"

namespace tracedb {

/// Source coordinate of one shard record in a merge round: shard slot in
/// the round's live list plus the record's original append index.
struct MergeRef {
  std::size_t shard;
  std::size_t local;
};

/// Merges per-shard key tables into one globally ordered reference list.
///
/// `keys[s][i]` is the sort key (timestamp) of record `i` of live shard
/// `s`, in append order; `shard_ids[s]` breaks timestamp ties (registration
/// order), and the append index breaks ties within one shard.  `threads`
/// is the worker budget: 0 means hardware concurrency, 1 forces the
/// sequential path.  The returned refs use *append* indices, so callers
/// can remap parent references exactly as with the sorted-pair approach.
[[nodiscard]] std::vector<MergeRef> parallel_merge_order(
    const std::vector<std::vector<Nanoseconds>>& keys,
    const std::vector<std::uint32_t>& shard_ids, std::size_t threads);

}  // namespace tracedb
