// Windowed time-series primitives for online (in-flight) analysis.
//
// The post-mortem analyser sees one cumulative distribution per call site;
// a live monitor needs the *per-window* view — "what did latency look like
// in the last interval" — plus a baseline to decide when a site's regime
// has moved.  This header provides the two building blocks:
//
//   WindowedHdr  — a cumulative HdrSnapshot recorded beside a window-local
//                  one, with the bucket range each has touched, so closing
//                  a window costs only what the window recorded.
//   EwmaCusum    — EWMA baseline + two-sided CUSUM change detection over
//                  per-window aggregates (the classic quickest-detection
//                  scheme: robust to noise, O(1) per observation).
#pragma once

#include <cstddef>
#include <cstdint>

#include "telemetry/hdr_histogram.hpp"

namespace telemetry {

/// Cumulative HDR recorder with a window cursor.  record() accumulates into
/// both histograms; window_delta() is the distribution since the last
/// checkpoint(); checkpoint() closes the window.  The delta is recorded, not
/// derived, so it equals the bucket-wise difference of two cumulative
/// checkpoints, with the exact sum.  The *_first() buckets are where
/// percentile walks may start: HdrSnapshot::value_at_percentile(q, first).
class WindowedHdr {
 public:
  void record(std::uint64_t v) noexcept {
    const std::size_t i = hdr::index_of(v);
    cumulative_.record(v);
    window_.record(v);
    if (i < window_first_) window_first_ = i;
    if (i > window_last_) window_last_ = i;
    if (i < cumulative_first_) cumulative_first_ = i;
  }

  [[nodiscard]] const HdrSnapshot& cumulative() const noexcept { return cumulative_; }
  [[nodiscard]] const HdrSnapshot& window_delta() const noexcept { return window_; }
  /// Lowest bucket recorded since the last checkpoint (kBucketCount if none).
  [[nodiscard]] std::size_t window_first() const noexcept { return window_first_; }
  /// Lowest bucket ever recorded (kBucketCount if none).
  [[nodiscard]] std::size_t cumulative_first() const noexcept { return cumulative_first_; }

  /// Closes the current window: zeroes the buckets it touched, so the next
  /// delta starts empty.
  void checkpoint() noexcept {
    window_.clear(window_first_, window_last_);
    window_first_ = hdr::kBucketCount;
    window_last_ = 0;
  }

 private:
  HdrSnapshot cumulative_;
  HdrSnapshot window_;
  std::size_t window_first_ = hdr::kBucketCount;
  std::size_t window_last_ = 0;
  std::size_t cumulative_first_ = hdr::kBucketCount;
};

/// EWMA baseline plus two-sided CUSUM over per-window aggregates.
///
/// Each observation x updates g⁺ = max(0, g⁺ + (x−μ)/σ − k) (and the mirror
/// g⁻); a change-point fires when either side exceeds h, after which the
/// baseline re-anchors to x and both accumulators reset — the detector
/// adapts to the new regime instead of alarming forever.  μ is an EWMA of
/// the observations, σ an EWMA of |x−μ| (floored so a perfectly flat
/// baseline still tolerates quantization noise).
class EwmaCusum {
 public:
  struct Config {
    double alpha = 0.3;      // EWMA smoothing factor for μ and σ
    double drift = 0.5;      // k: slack per observation, in σ units
    double threshold = 4.0;  // h: alarm level, in σ units
    double min_sigma_frac = 0.05;  // σ floor as a fraction of μ
    std::size_t warmup = 3;  // observations before alarms may fire
  };

  EwmaCusum();  // defaults (defined below: NSDMIs of a nested class are
                // unusable as default arguments inside the enclosing class)
  explicit EwmaCusum(Config cfg) : cfg_(cfg) {}

  /// Feeds one window aggregate.  Returns true when a change-point fired on
  /// this observation (the alarm is edge-triggered, not a level).
  bool observe(double x);

  [[nodiscard]] double baseline() const noexcept { return mean_; }
  /// Larger of the two CUSUM accumulators — "how far out of regime".
  [[nodiscard]] double deviation() const noexcept { return g_up_ > g_dn_ ? g_up_ : g_dn_; }
  [[nodiscard]] std::size_t observations() const noexcept { return n_; }

 private:
  Config cfg_;
  double mean_ = 0.0;
  double sigma_ = 0.0;
  double g_up_ = 0.0;
  double g_dn_ = 0.0;
  std::size_t n_ = 0;
};

inline EwmaCusum::EwmaCusum() : EwmaCusum(Config()) {}

}  // namespace telemetry
