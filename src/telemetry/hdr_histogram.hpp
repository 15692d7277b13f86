// HDR-style log-bucketed latency histograms.
//
// The analyser originally reported mean/stddev per call site, which hides
// exactly the tail behaviour the SISC/SDSC anti-patterns produce (a handful
// of 100x-slower transitions disappear into the average).  This header adds
// the per-primitive latency *distributions* the SGX benchmarking literature
// reports instead: a histogram whose buckets grow geometrically, giving a
// bounded relative error (~3% at 5 sub-bucket bits) over the full u64 range
// with a fixed, small memory footprint — the same trick as the HDR
// Histogram library.
//
// HdrSnapshot is a plain, single-owner bucket array: the online analyser's
// windows, `sgxperf top`, the fleet aggregator and the serve daemon record
// into it, the analyser reads it, and it is the merge/persistence currency
// (the v4 trace format stores it sparsely, tracedb::LatencyRecord).  The
// logger keeps none on its hot path: a recording's latency table is folded
// from the merged call table when the logger seals its shards.
//
// Bucket math (standard HDR layout, kSubBits = B, kSubCount = S = 2^B):
//   v < S              -> bucket v                      (exact, width 1)
//   v in [2^h, 2^h+1)  -> group g = h-B+1, sub-bucket (v >> (h-B)) - S,
//                         bucket g*S + sub              (width 2^(h-B))
// Values at or above 2^(kMaxExponent+1) clamp into the last bucket.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
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

  /// Replaces the bound-derived sum with an exactly-recorded one (a latency
  /// row carries it: tracedb::snapshot_of).
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

}  // namespace telemetry
