// HDR-style log-bucketed latency histograms.
//
// The analyser originally reported mean/stddev per call site, which hides
// exactly the tail behaviour the SISC/SDSC anti-patterns produce (a handful
// of 100x-slower transitions disappear into the average).  This header adds
// the per-primitive latency *distributions* the SGX benchmarking literature
// reports instead: a histogram whose buckets grow geometrically, giving a
// bounded relative error (~3% at 5 sub-bucket bits) over the full u64 range
// with a fixed, small memory footprint — the same trick as HdrHistogram.
//
// Two layers:
//
//   HdrSnapshot  — a plain, single-owner bucket array.  Used by readers
//                  (analyser, `sgxperf top`) and as the merge/persistence
//                  currency (the v4 trace format stores it sparsely).
//   HdrHistogram — the concurrent recorder: per-stripe cache-line-aligned
//                  atomic rows, exactly like telemetry::Histogram in
//                  metrics.hpp.  record() is lock-free and wait-free.
//
// Bucket math (standard HDR layout, kSubBits = B, kSubCount = S = 2^B):
//   v < S              -> bucket v                      (exact, width 1)
//   v in [2^h, 2^h+1)  -> group g = h-B+1, sub-bucket (v >> (h-B)) - S,
//                         bucket g*S + sub              (width 2^(h-B))
// Values at or above 2^(kMaxExponent+1) clamp into the last bucket.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace telemetry {
namespace hdr {

/// Sub-bucket resolution: 2^5 = 32 linear buckets per power of two, i.e. a
/// worst-case relative error of 1/32 (~3%) on any reported percentile.
inline constexpr std::uint32_t kSubBits = 5;
inline constexpr std::uint64_t kSubCount = 1ull << kSubBits;

/// Largest tracked exponent: values up to 2^40 ns (~18 virtual minutes)
/// resolve normally; anything larger clamps into the final bucket.
inline constexpr std::uint32_t kMaxExponent = 39;

/// Total bucket count: one linear group plus one group per exponent above
/// the sub-bucket range.
inline constexpr std::size_t kBucketCount =
    static_cast<std::size_t>(kMaxExponent - kSubBits + 2) * kSubCount;

/// Bucket index of `v` (clamped to the last bucket for out-of-range values).
[[nodiscard]] constexpr std::size_t index_of(std::uint64_t v) noexcept {
  if (v < kSubCount) return static_cast<std::size_t>(v);
  std::uint32_t h = static_cast<std::uint32_t>(std::bit_width(v)) - 1;
  if (h > kMaxExponent) return kBucketCount - 1;
  const std::uint32_t g = h - kSubBits + 1;
  const std::uint64_t sub = (v >> (h - kSubBits)) - kSubCount;
  return static_cast<std::size_t>(g) * kSubCount + static_cast<std::size_t>(sub);
}

/// Smallest value that maps to bucket `idx`.
[[nodiscard]] constexpr std::uint64_t lower_bound(std::size_t idx) noexcept {
  if (idx < kSubCount) return idx;
  const std::uint64_t g = idx / kSubCount;
  const std::uint64_t sub = idx % kSubCount;
  return (kSubCount + sub) << (g - 1);
}

/// Largest value that maps to bucket `idx` (percentiles report this, so a
/// reported quantile is always an upper bound on the true one).
[[nodiscard]] constexpr std::uint64_t upper_bound(std::size_t idx) noexcept {
  if (idx < kSubCount) return idx;
  const std::uint64_t g = idx / kSubCount;
  return lower_bound(idx) + (1ull << (g - 1)) - 1;
}

}  // namespace hdr

/// A plain (single-owner) HDR bucket array with the derived statistics the
/// report writers need.  Cheap to merge; trivially serialisable (the trace
/// format stores only the non-zero buckets).
class HdrSnapshot {
 public:
  HdrSnapshot() : counts_(hdr::kBucketCount, 0) {}

  void record(std::uint64_t v, std::uint64_t n = 1) noexcept {
    counts_[hdr::index_of(v)] += n;
    count_ += n;
    sum_ += v * n;
  }

  /// Adds a raw bucket (persistence load path).  `idx` out of range clamps.
  void add_bucket(std::size_t idx, std::uint64_t n) noexcept {
    if (idx >= hdr::kBucketCount) idx = hdr::kBucketCount - 1;
    counts_[idx] += n;
    count_ += n;
    sum_ += hdr::upper_bound(idx) * n;
  }

  void merge(const HdrSnapshot& other) noexcept {
    for (std::size_t i = 0; i < hdr::kBucketCount; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_ += other.sum_;
  }

  /// Value at percentile `q` in [0, 100]: the upper bound of the bucket
  /// containing the q-th rank.  0 on an empty snapshot.  The walk starts at
  /// bucket `first`, which must be at or below the lowest non-empty bucket
  /// (telemetry::WindowedHdr tracks it).  Kept as its own early-exit walk:
  /// single percentiles measured slower through values_at_percentiles.
  [[nodiscard]] std::uint64_t value_at_percentile(double q,
                                                  std::size_t first = 0) const noexcept {
    if (count_ == 0) return 0;
    const std::uint64_t rank = rank_of(q);
    std::uint64_t seen = 0;
    for (std::size_t i = first; i < hdr::kBucketCount; ++i) {
      seen += counts_[i];
      if (seen >= rank) return hdr::upper_bound(i);
    }
    return hdr::upper_bound(hdr::kBucketCount - 1);
  }

  /// value_at_percentile(qs[k]) into out[k] for every k, in one walk of the
  /// buckets.  `qs` must be ascending; `out` at least as long as `qs`.
  void values_at_percentiles(std::span<const double> qs,
                             std::span<std::uint64_t> out) const noexcept {
    std::size_t next = 0;    // next bucket to add to `seen`
    std::uint64_t seen = 0;  // values in buckets [0, next)
    for (std::size_t k = 0; k < qs.size(); ++k) {
      if (count_ == 0) {
        out[k] = 0;
        continue;
      }
      const std::uint64_t rank = rank_of(qs[k]);
      // Ascending ranks: the walk resumes where the previous rank stopped.
      while (seen < rank && next < hdr::kBucketCount) seen += counts_[next++];
      out[k] = hdr::upper_bound(seen >= rank ? next - 1 : hdr::kBucketCount - 1);
    }
  }

  /// Number of recorded values that fall in buckets entirely below `v` —
  /// a lower bound on the exact count, tight to one bucket's width.
  [[nodiscard]] std::uint64_t count_below(std::uint64_t v) const noexcept {
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < hdr::kBucketCount && hdr::upper_bound(i) < v; ++i) {
      below += counts_[i];
    }
    return below;
  }

  /// Upper bound of the highest non-empty bucket (~the observed maximum).
  [[nodiscard]] std::uint64_t max_value() const noexcept {
    for (std::size_t i = hdr::kBucketCount; i-- > 0;) {
      if (counts_[i] > 0) return hdr::upper_bound(i);
    }
    return 0;
  }

  /// Empties the snapshot by zeroing buckets [first, last] only; every
  /// non-empty bucket must lie in that range.  first > last zeroes none.
  void clear(std::size_t first, std::size_t last) noexcept {
    for (std::size_t i = first; i <= last; ++i) counts_[i] = 0;
    count_ = 0;
    sum_ = 0;
  }

  /// Replaces the bound-derived sum with an exactly-recorded one (used by
  /// HdrHistogram::snapshot() and the trace loader, which both carry it).
  void set_exact_sum(std::uint64_t sum) noexcept { sum_ = sum; }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept { return counts_; }

 private:
  /// The rank percentile `q` selects, clamped to [1, count_] (count_ > 0).
  [[nodiscard]] std::uint64_t rank_of(double q) const noexcept {
    auto rank = static_cast<std::uint64_t>(q / 100.0 * static_cast<double>(count_) + 0.5);
    if (rank < 1) rank = 1;
    if (rank > count_) rank = count_;
    return rank;
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Concurrent HDR recorder.  record() is lock-free: each of kHdrStripes
/// stripes owns a private row of bucket counters plus a sum cell, padded to
/// whole cache lines, and a thread only ever touches its own stripe (same
/// registration scheme as metrics.hpp).  snapshot() sums the stripes into a
/// racy-by-design point-in-time HdrSnapshot — what a live monitor wants.
class HdrHistogram {
 public:
  /// Stripes trade memory for contention; 8 rows * kBucketCount * 8 B ≈
  /// 74 KiB per instrument, small enough for one histogram per call site.
  static constexpr std::size_t kHdrStripes = 8;

  HdrHistogram() {
    cells_ = std::make_unique<std::atomic<std::uint64_t>[]>(kRow * kHdrStripes);
    for (std::size_t i = 0; i < kRow * kHdrStripes; ++i) cells_[i] = 0;
  }

  HdrHistogram(const HdrHistogram&) = delete;
  HdrHistogram& operator=(const HdrHistogram&) = delete;

  void record(std::uint64_t v) noexcept {
    auto* row = &cells_[stripe() * kRow];
    row[hdr::index_of(v)].fetch_add(1, std::memory_order_relaxed);
    row[hdr::kBucketCount].fetch_add(v, std::memory_order_relaxed);
  }

  [[nodiscard]] HdrSnapshot snapshot() const {
    HdrSnapshot snap;
    for (std::size_t s = 0; s < kHdrStripes; ++s) {
      const auto* row = &cells_[s * kRow];
      for (std::size_t i = 0; i < hdr::kBucketCount; ++i) {
        const std::uint64_t n = row[i].load(std::memory_order_relaxed);
        if (n > 0) snap.add_bucket(i, n);
      }
    }
    // add_bucket approximates the sum from bucket bounds; replace it with
    // the exact recorded sum the stripes carry.
    snap.set_exact_sum(exact_sum());
    return snap;
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < kHdrStripes; ++s) {
      const auto* row = &cells_[s * kRow];
      for (std::size_t i = 0; i < hdr::kBucketCount; ++i) {
        total += row[i].load(std::memory_order_relaxed);
      }
    }
    return total;
  }

  void reset() noexcept {
    for (std::size_t i = 0; i < kRow * kHdrStripes; ++i) {
      cells_[i].store(0, std::memory_order_relaxed);
    }
  }

 private:
  /// Row layout per stripe: [bucket counts...][sum], padded to 64 bytes.
  static constexpr std::size_t kRow = (hdr::kBucketCount + 1 + 7) / 8 * 8;

  [[nodiscard]] std::uint64_t exact_sum() const noexcept {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < kHdrStripes; ++s) {
      total += cells_[s * kRow + hdr::kBucketCount].load(std::memory_order_relaxed);
    }
    return total;
  }

  static std::size_t stripe() noexcept {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t s =
        next.fetch_add(1, std::memory_order_relaxed) % kHdrStripes;
    return s;
  }

  std::unique_ptr<std::atomic<std::uint64_t>[]> cells_;
};

}  // namespace telemetry
