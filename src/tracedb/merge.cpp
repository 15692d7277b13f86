#include "tracedb/merge.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>

namespace tracedb {
namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Below this many total records the segment/thread machinery costs more
/// than it saves; fall back to one sequential loser-tree pass.
constexpr std::size_t kMinRecordsPerSegment = 8'192;

/// One shard's contribution to a merge segment: a [pos, end) window over
/// the shard's *sorted* index array.
struct Run {
  const std::vector<Nanoseconds>* keys = nullptr;     // append-order keys
  const std::vector<std::size_t>* sorted = nullptr;   // indices sorted by (key, index)
  std::size_t pos = 0;
  std::size_t end = 0;
  std::uint32_t shard_id = 0;
  std::size_t shard_slot = 0;

  [[nodiscard]] bool exhausted() const noexcept { return pos >= end; }
  [[nodiscard]] Nanoseconds key() const noexcept { return (*keys)[(*sorted)[pos]]; }
  [[nodiscard]] std::size_t local() const noexcept { return (*sorted)[pos]; }
};

/// Tournament (loser) tree over k runs: internal nodes remember the loser
/// of their match, the overall winner sits at the root.  Emitting a record
/// replays only the winner's root path — log2(k) comparisons — where a
/// global sort pays log2(N).
class LoserTree {
 public:
  explicit LoserTree(std::vector<Run>& runs) : runs_(runs) {
    k_ = 1;
    while (k_ < runs_.size()) k_ <<= 1;
    loser_.assign(k_, kNone);
    std::vector<std::size_t> winner(2 * k_, kNone);
    for (std::size_t i = 0; i < runs_.size(); ++i) winner[k_ + i] = i;
    for (std::size_t n = k_ - 1; n >= 1; --n) {
      std::size_t a = winner[2 * n];
      std::size_t b = winner[2 * n + 1];
      if (beats(b, a)) std::swap(a, b);
      winner[n] = a;   // winner moves up
      loser_[n] = b;   // loser stays at this match
    }
    winner_ = winner[1];
  }

  /// Run index holding the globally smallest current record.
  [[nodiscard]] std::size_t top() const noexcept { return winner_; }

  /// Consumes the winner's current record and replays its path to the root.
  void advance() noexcept {
    ++runs_[winner_].pos;
    std::size_t cur = winner_;
    for (std::size_t n = (k_ + winner_) / 2; n >= 1; n /= 2) {
      if (beats(loser_[n], cur)) std::swap(cur, loser_[n]);
    }
    winner_ = cur;
  }

 private:
  /// Strict "run a's current record sorts before run b's".  Exhausted runs
  /// (and padding slots) lose every match.  The (key, shard_id) pair is a
  /// total order across runs — each run is one shard, so the within-shard
  /// append index never has to break a tie here.
  [[nodiscard]] bool beats(std::size_t a, std::size_t b) const noexcept {
    if (a == kNone || runs_[a].exhausted()) return false;
    if (b == kNone || runs_[b].exhausted()) return true;
    const Nanoseconds ka = runs_[a].key();
    const Nanoseconds kb = runs_[b].key();
    if (ka != kb) return ka < kb;
    return runs_[a].shard_id < runs_[b].shard_id;
  }

  std::vector<Run>& runs_;
  std::size_t k_ = 1;
  std::vector<std::size_t> loser_;
  std::size_t winner_ = kNone;
};

/// Merges one segment (a per-shard window vector) into `out[offset...]`.
void merge_segment(std::vector<Run> runs, std::vector<MergeRef>& out, std::size_t offset,
                   std::size_t count) {
  LoserTree tree(runs);
  for (std::size_t i = 0; i < count; ++i) {
    const Run& r = runs[tree.top()];
    out[offset + i] = MergeRef{r.shard_slot, r.local()};
    tree.advance();
  }
}

/// Runs `fn(i)` for i in [0, n) on up to `threads` workers.
template <typename Fn>
void parallel_for(std::size_t n, std::size_t threads, Fn&& fn) {
  const std::size_t workers = std::min(threads, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  std::atomic<std::size_t> next{0};
  const auto body = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
  };
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(body);
  body();
  for (auto& t : pool) t.join();
}

}  // namespace

std::vector<MergeRef> parallel_merge_order(const std::vector<std::vector<Nanoseconds>>& keys,
                                           const std::vector<std::uint32_t>& shard_ids,
                                           std::size_t threads) {
  const std::size_t k = keys.size();
  std::size_t total = 0;
  for (const auto& t : keys) total += t.size();
  if (total == 0) return {};

  if (threads == 0) threads = std::max<unsigned>(1, std::thread::hardware_concurrency());
  // Each segment must be worth a thread's startup; small traces go sequential.
  threads = std::clamp<std::size_t>(total / kMinRecordsPerSegment, 1, threads);

  // --- 1. per-shard index sort (parallel across shards) ---------------------
  // Shards are appended in each thread's completion order, which is close to
  // start order already, so these sorts touch mostly-sorted data; a shard
  // whose keys are in order already needs no sort at all.
  std::vector<std::vector<std::size_t>> sorted(k);
  parallel_for(k, threads, [&](std::size_t s) {
    auto& idx = sorted[s];
    idx.resize(keys[s].size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    if (std::is_sorted(keys[s].begin(), keys[s].end())) return;
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      if (keys[s][a] != keys[s][b]) return keys[s][a] < keys[s][b];
      return a < b;  // append order within a shard
    });
  });

  const auto run_for = [&](std::size_t s, std::size_t begin, std::size_t end) {
    Run r;
    r.keys = &keys[s];
    r.sorted = &sorted[s];
    r.pos = begin;
    r.end = end;
    r.shard_id = shard_ids[s];
    r.shard_slot = s;
    return r;
  };

  std::vector<MergeRef> out(total);
  if (threads <= 1) {
    std::vector<Run> runs;
    runs.reserve(k);
    for (std::size_t s = 0; s < k; ++s) runs.push_back(run_for(s, 0, sorted[s].size()));
    merge_segment(std::move(runs), out, 0, total);
    return out;
  }

  // --- 2. choose key splitters ----------------------------------------------
  // Segments partition by *key alone* (lower_bound on every shard), so a
  // timestamp tie can never straddle a boundary — concatenating the segment
  // outputs reproduces the sequential order exactly.
  std::vector<Nanoseconds> samples;
  samples.reserve(k * threads);
  for (std::size_t s = 0; s < k; ++s) {
    const std::size_t n = sorted[s].size();
    for (std::size_t t = 1; t < threads; ++t) {
      if (n > 0) samples.push_back(keys[s][sorted[s][n * t / threads]]);
    }
  }
  std::sort(samples.begin(), samples.end());
  std::vector<Nanoseconds> splitters;
  splitters.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) {
    splitters.push_back(samples[samples.size() * t / threads]);
  }

  // Per-boundary shard positions: bounds[t][s] = first element of shard s
  // belonging to segment t or later.
  std::vector<std::vector<std::size_t>> bounds(threads + 1,
                                               std::vector<std::size_t>(k, 0));
  for (std::size_t s = 0; s < k; ++s) bounds[threads][s] = sorted[s].size();
  for (std::size_t t = 1; t < threads; ++t) {
    for (std::size_t s = 0; s < k; ++s) {
      const auto& idx = sorted[s];
      bounds[t][s] = static_cast<std::size_t>(
          std::lower_bound(idx.begin(), idx.end(), splitters[t - 1],
                           [&](std::size_t i, Nanoseconds v) { return keys[s][i] < v; }) -
          idx.begin());
      // Splitters ascend, but equal samples can produce equal boundaries.
      bounds[t][s] = std::max(bounds[t][s], bounds[t - 1][s]);
    }
  }

  // --- 3. merge every segment concurrently ----------------------------------
  std::vector<std::size_t> offsets(threads + 1, 0);
  for (std::size_t t = 0; t < threads; ++t) {
    std::size_t count = 0;
    for (std::size_t s = 0; s < k; ++s) count += bounds[t + 1][s] - bounds[t][s];
    offsets[t + 1] = offsets[t] + count;
  }
  parallel_for(threads, threads, [&](std::size_t t) {
    const std::size_t count = offsets[t + 1] - offsets[t];
    if (count == 0) return;
    std::vector<Run> runs;
    runs.reserve(k);
    for (std::size_t s = 0; s < k; ++s) runs.push_back(run_for(s, bounds[t][s], bounds[t + 1][s]));
    merge_segment(std::move(runs), out, offsets[t], count);
  });
  return out;
}

}  // namespace tracedb
