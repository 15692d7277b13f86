// HDR-style log-bucketed histogram: bucket geometry invariants, percentile
// extraction, merge/serialisation round trips and the online analyser's
// windowed recorder (WindowedHdr).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "telemetry/hdr_histogram.hpp"
#include "telemetry/timeseries.hpp"

namespace {

using telemetry::HdrSnapshot;
using telemetry::WindowedHdr;
namespace hdr = telemetry::hdr;

TEST(HdrGeometry, FirstBucketsAreExact) {
  // Values below kSubCount land in their own unit-wide bucket.
  for (std::uint64_t v = 0; v < hdr::kSubCount; ++v) {
    const std::size_t idx = hdr::index_of(v);
    EXPECT_EQ(hdr::lower_bound(idx), v);
    EXPECT_EQ(hdr::upper_bound(idx), v);
  }
}

TEST(HdrGeometry, EveryValueFallsInsideItsBucket) {
  // Sweep powers of two and their neighbours across the whole range.
  for (std::uint32_t shift = 0; shift <= hdr::kMaxExponent; ++shift) {
    const std::uint64_t base = 1ULL << shift;
    for (const std::uint64_t v : {base - 1, base, base + 1, base + base / 3}) {
      const std::size_t idx = hdr::index_of(v);
      ASSERT_LT(idx, hdr::kBucketCount);
      EXPECT_LE(hdr::lower_bound(idx), v) << "value " << v;
      EXPECT_GE(hdr::upper_bound(idx), v) << "value " << v;
    }
  }
}

TEST(HdrGeometry, BucketsAreContiguousAndMonotonic) {
  for (std::size_t idx = 1; idx < hdr::kBucketCount; ++idx) {
    EXPECT_EQ(hdr::lower_bound(idx), hdr::upper_bound(idx - 1) + 1) << "bucket " << idx;
  }
}

TEST(HdrGeometry, OverflowClampsToLastBucket) {
  EXPECT_EQ(hdr::index_of(~0ULL), hdr::kBucketCount - 1);
}

TEST(HdrSnapshotTest, EmptySnapshotReportsZero) {
  HdrSnapshot snap;
  EXPECT_EQ(snap.count(), 0u);
  EXPECT_EQ(snap.value_at_percentile(50), 0u);
  EXPECT_EQ(snap.value_at_percentile(99.9), 0u);
  EXPECT_EQ(snap.max_value(), 0u);
}

TEST(HdrSnapshotTest, PercentilesOfUniformRange) {
  HdrSnapshot snap;
  for (std::uint64_t v = 1; v <= 10'000; ++v) snap.record(v);
  EXPECT_EQ(snap.count(), 10'000u);
  // HDR quantization: the reported value bounds the true percentile from
  // above by at most one bucket width (≤ ~3% relative error at 5 sub-bits).
  const auto p50 = static_cast<double>(snap.value_at_percentile(50));
  const auto p99 = static_cast<double>(snap.value_at_percentile(99));
  EXPECT_GE(p50, 5'000.0);
  EXPECT_LE(p50, 5'000.0 * 1.04);
  EXPECT_GE(p99, 9'900.0);
  EXPECT_LE(p99, 9'900.0 * 1.04);
  EXPECT_GE(snap.value_at_percentile(100), 10'000u);
}

TEST(HdrSnapshotTest, SingleValueDominatesAllPercentiles) {
  HdrSnapshot snap;
  snap.record(777);
  for (const double q : {0.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const std::uint64_t v = snap.value_at_percentile(q);
    EXPECT_LE(hdr::lower_bound(hdr::index_of(777)), v);
    EXPECT_GE(hdr::upper_bound(hdr::index_of(777)), v);
  }
}

TEST(HdrSnapshotTest, MergeIsAdditive) {
  HdrSnapshot a;
  HdrSnapshot b;
  for (std::uint64_t v = 0; v < 100; ++v) a.record(v);
  for (std::uint64_t v = 1'000; v < 1'100; ++v) b.record(v);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  // Lower half comes from a, upper half from b.
  EXPECT_LT(a.value_at_percentile(25), 100u);
  EXPECT_GE(a.value_at_percentile(75), 1'000u);
}

/// The documented rank rule, restated independently of HdrSnapshot: the
/// upper bound of the first bucket whose cumulative count reaches the rank.
std::uint64_t reference_percentile(const HdrSnapshot& snap, double q) {
  if (snap.count() == 0) return 0;
  auto rank = static_cast<std::uint64_t>(q / 100.0 * static_cast<double>(snap.count()) + 0.5);
  rank = std::clamp<std::uint64_t>(rank, 1, snap.count());
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < hdr::kBucketCount; ++i) {
    seen += snap.buckets()[i];
    if (seen >= rank) return hdr::upper_bound(i);
  }
  return hdr::upper_bound(hdr::kBucketCount - 1);
}

void expect_one_walk_matches(const HdrSnapshot& snap, const std::string& what) {
  static constexpr double kQs[] = {0.0,  0.001, 1.0,  10.0, 25.0,  50.0,   50.0,
                                   75.0, 90.0,  99.0, 99.9, 99.99, 99.999, 100.0};
  std::uint64_t got[std::size(kQs)];
  snap.values_at_percentiles(kQs, got);
  for (std::size_t k = 0; k < std::size(kQs); ++k) {
    EXPECT_EQ(got[k], snap.value_at_percentile(kQs[k])) << what << " q=" << kQs[k];
    EXPECT_EQ(got[k], reference_percentile(snap, kQs[k])) << what << " q=" << kQs[k];
  }
  // Any ascending subset walks to the same answers.
  const double pair[] = {kQs[5], kQs[13]};
  std::uint64_t two[2];
  snap.values_at_percentiles(pair, two);
  EXPECT_EQ(two[0], got[5]) << what;
  EXPECT_EQ(two[1], got[13]) << what;
}

TEST(HdrSnapshotTest, OneWalkPercentilesMatchSingleLookups) {
  expect_one_walk_matches(HdrSnapshot{}, "empty");

  HdrSnapshot single;
  single.add_bucket(37, 5);
  expect_one_walk_matches(single, "single bucket");

  HdrSnapshot clamped;
  clamped.record(7, 3);
  clamped.record(~std::uint64_t{0}, 2);  // clamps into the last bucket
  expect_one_walk_matches(clamped, "clamped last bucket");

  HdrSnapshot last_only;
  last_only.add_bucket(hdr::kBucketCount - 1, 1);
  expect_one_walk_matches(last_only, "last bucket only");

  std::mt19937_64 rng(20241019);
  for (int trial = 0; trial < 200; ++trial) {
    HdrSnapshot snap;
    const std::size_t filled = 1 + rng() % 24;
    for (std::size_t i = 0; i < filled; ++i) {
      snap.add_bucket(rng() % hdr::kBucketCount, 1 + rng() % (trial % 2 == 0 ? 3 : 100'000));
    }
    expect_one_walk_matches(snap, "trial " + std::to_string(trial));
  }
}

TEST(HdrSnapshotTest, BucketReconstructionMatchesDirectRecording) {
  // The analyzer rebuilds snapshots from the trace's sparse bucket table;
  // both paths must agree bit-for-bit on every percentile.
  HdrSnapshot direct;
  for (std::uint64_t v : {3u, 17u, 450u, 450u, 9'000u, 1'000'000u}) direct.record(v);

  HdrSnapshot rebuilt;
  for (std::size_t idx = 0; idx < hdr::kBucketCount; ++idx) {
    const std::uint64_t n = direct.buckets()[idx];
    if (n > 0) rebuilt.add_bucket(idx, n);
  }
  rebuilt.set_exact_sum(direct.sum());
  EXPECT_EQ(rebuilt.count(), direct.count());
  EXPECT_EQ(rebuilt.sum(), direct.sum());
  for (const double q : {50.0, 90.0, 99.0, 99.9}) {
    EXPECT_EQ(rebuilt.value_at_percentile(q), direct.value_at_percentile(q)) << "q=" << q;
  }
}

// --- WindowedHdr ---------------------------------------------------------------
//
// The window histogram is recorded beside the cumulative one; the reference
// is what it replaced: the bucket-wise difference of two cumulative
// checkpoints.

/// Bucket-wise `cumulative - baseline`, with the exact sum difference.
HdrSnapshot reference_delta(const HdrSnapshot& cumulative, const HdrSnapshot& baseline) {
  HdrSnapshot out;
  for (std::size_t i = 0; i < hdr::kBucketCount; ++i) {
    const std::uint64_t n = cumulative.buckets()[i] - baseline.buckets()[i];
    if (n > 0) out.add_bucket(i, n);
  }
  out.set_exact_sum(cumulative.sum() - baseline.sum());
  return out;
}

/// Lowest non-empty bucket, kBucketCount if none.
std::size_t lowest_bucket(const HdrSnapshot& snap) {
  const auto& b = snap.buckets();
  return static_cast<std::size_t>(
      std::find_if(b.begin(), b.end(), [](std::uint64_t n) { return n != 0; }) - b.begin());
}

constexpr double kWindowQs[] = {0.0, 50.0, 99.0, 99.9, 100.0};

void expect_window_matches(const WindowedHdr& w, const HdrSnapshot& baseline,
                           const std::string& what) {
  const HdrSnapshot want = reference_delta(w.cumulative(), baseline);
  const HdrSnapshot& got = w.window_delta();
  ASSERT_EQ(got.buckets(), want.buckets()) << what;
  EXPECT_EQ(got.count(), want.count()) << what;
  EXPECT_EQ(got.sum(), want.sum()) << what;
  EXPECT_EQ(got.mean(), want.mean()) << what;
  EXPECT_EQ(w.window_first(), lowest_bucket(want)) << what;
  EXPECT_EQ(w.cumulative_first(), lowest_bucket(w.cumulative())) << what;
  for (const double q : kWindowQs) {
    EXPECT_EQ(got.value_at_percentile(q, w.window_first()), want.value_at_percentile(q))
        << what << " q=" << q;
    EXPECT_EQ(w.cumulative().value_at_percentile(q, w.cumulative_first()),
              w.cumulative().value_at_percentile(q))
        << what << " q=" << q;
  }
}

TEST(WindowedHdrTest, WindowsEqualDifferencesOfCumulativeCheckpoints) {
  for (const std::uint32_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    std::mt19937_64 rng(seed);
    // Each value class with its own weight: 0, exact buckets below kSubCount,
    // the log range, and the clamp bucket (>= 2^40; small enough that sums
    // of a few thousand never wrap).
    const auto draw = [&rng]() -> std::uint64_t {
      switch (rng() % 6) {
        case 0: return 0;
        case 1: return rng() % hdr::kSubCount;
        case 2: return (1ull << 40) + rng() % (1ull << 48);
        default: return rng() % (1ull << (8 + rng() % 24));
      }
    };
    WindowedHdr w;
    HdrSnapshot baseline;  // the cumulative histogram at the last checkpoint
    for (int window = 0; window < 40; ++window) {
      const std::string what = "seed " + std::to_string(seed) + " window " +
                               std::to_string(window);
      // Every fifth window is empty.
      const std::size_t n = window % 5 == 4 ? 0 : rng() % 300;
      for (std::size_t i = 0; i < n; ++i) w.record(draw());
      expect_window_matches(w, baseline, what);
      w.checkpoint();
      if (window % 7 == 0) w.checkpoint();  // repeated checkpoints are no-ops
      baseline = w.cumulative();
      expect_window_matches(w, baseline, what + " after checkpoint");
    }
  }
}

TEST(WindowedHdrTest, CheckpointClearsTheClampBucketAndTheExactBuckets) {
  WindowedHdr w;
  EXPECT_EQ(w.window_first(), hdr::kBucketCount);
  EXPECT_EQ(w.cumulative_first(), hdr::kBucketCount);
  EXPECT_EQ(w.window_delta().value_at_percentile(50, w.window_first()), 0u);

  w.record(~0ull);  // clamps into the last bucket
  EXPECT_EQ(w.window_first(), hdr::kBucketCount - 1);
  EXPECT_EQ(w.window_delta().value_at_percentile(99, w.window_first()),
            hdr::upper_bound(hdr::kBucketCount - 1));
  w.checkpoint();
  EXPECT_EQ(w.window_delta().buckets(), HdrSnapshot().buckets());

  w.record(0);
  w.record(hdr::kSubCount - 1);
  w.record(1ull << 40);
  EXPECT_EQ(w.window_first(), 0u);
  EXPECT_EQ(w.window_delta().count(), 3u);
  EXPECT_EQ(w.window_delta().sum(), hdr::kSubCount - 1 + (1ull << 40));
  w.checkpoint();
  EXPECT_EQ(w.window_delta().buckets(), HdrSnapshot().buckets());
  EXPECT_EQ(w.window_delta().count(), 0u);
  EXPECT_EQ(w.window_delta().sum(), 0u);
  EXPECT_EQ(w.cumulative().count(), 4u);
  EXPECT_EQ(w.cumulative_first(), 0u);
}

}  // namespace
