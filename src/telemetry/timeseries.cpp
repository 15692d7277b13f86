#include "telemetry/timeseries.hpp"

#include <cmath>

namespace telemetry {

bool EwmaCusum::observe(double x) {
  ++n_;
  if (n_ == 1) {
    mean_ = x;
    sigma_ = std::abs(x) * cfg_.min_sigma_frac;
    return false;
  }

  const double floor_sigma = std::abs(mean_) * cfg_.min_sigma_frac;
  const double sigma = sigma_ > floor_sigma ? sigma_ : (floor_sigma > 1.0 ? floor_sigma : 1.0);
  const double z = (x - mean_) / sigma;

  bool fired = false;
  if (n_ > cfg_.warmup) {
    g_up_ = g_up_ + z - cfg_.drift;
    if (g_up_ < 0.0) g_up_ = 0.0;
    g_dn_ = g_dn_ - z - cfg_.drift;
    if (g_dn_ < 0.0) g_dn_ = 0.0;
    if (g_up_ > cfg_.threshold || g_dn_ > cfg_.threshold) {
      // Re-anchor to the new regime: the change is reported once, then the
      // detector starts watching for the *next* shift.
      fired = true;
      mean_ = x;
      sigma_ = std::abs(x) * cfg_.min_sigma_frac;
      g_up_ = 0.0;
      g_dn_ = 0.0;
      return fired;
    }
  }

  mean_ = cfg_.alpha * x + (1.0 - cfg_.alpha) * mean_;
  sigma_ = cfg_.alpha * std::abs(x - mean_) + (1.0 - cfg_.alpha) * sigma_;
  return fired;
}

}  // namespace telemetry
