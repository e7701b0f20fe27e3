#include "common/statistics.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/special.hpp"

namespace relkit {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::std_error() const {
  if (n_ == 0) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(n_));
}

double OnlineStats::ci_halfwidth(double confidence) const {
  detail::require(confidence > 0.0 && confidence < 1.0,
                  "ci_halfwidth: confidence in (0,1)");
  detail::require(n_ >= 2, "ci_halfwidth: need at least 2 observations");
  const double z = normal_quantile(0.5 + 0.5 * confidence);
  return z * std_error();
}

void BivariateStats::add(double x, double y) {
  ++n_;
  const double inv_n = 1.0 / static_cast<double>(n_);
  const double dx = x - mean_x_;
  const double dy = y - mean_y_;
  mean_x_ += dx * inv_n;
  mean_y_ += dy * inv_n;
  m2x_ += dx * (x - mean_x_);
  m2y_ += dy * (y - mean_y_);
  mxy_ += dx * (y - mean_y_);
}

void BivariateStats::merge(const BivariateStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double w = na * nb / (na + nb);
  const double dx = other.mean_x_ - mean_x_;
  const double dy = other.mean_y_ - mean_y_;
  mean_x_ += dx * nb / (na + nb);
  mean_y_ += dy * nb / (na + nb);
  m2x_ += other.m2x_ + dx * dx * w;
  m2y_ += other.m2y_ + dy * dy * w;
  mxy_ += other.mxy_ + dx * dy * w;
  n_ += other.n_;
}

double BivariateStats::variance_x() const {
  if (n_ < 2) return 0.0;
  return m2x_ / static_cast<double>(n_ - 1);
}

double BivariateStats::variance_y() const {
  if (n_ < 2) return 0.0;
  return m2y_ / static_cast<double>(n_ - 1);
}

double BivariateStats::covariance() const {
  if (n_ < 2) return 0.0;
  return mxy_ / static_cast<double>(n_ - 1);
}

double BivariateStats::ratio() const {
  detail::require(n_ >= 1 && mean_y_ != 0.0,
                  "BivariateStats::ratio: mean_y must be nonzero");
  return mean_x_ / mean_y_;
}

double BivariateStats::ratio_std_error() const {
  if (n_ < 2) return 0.0;
  const double r = ratio();
  const double s2 =
      variance_x() - 2.0 * r * covariance() + r * r * variance_y();
  // Rounding can push the quadratic form a hair negative; clamp.
  const double var = std::max(s2, 0.0) / static_cast<double>(n_);
  return std::sqrt(var) / std::abs(mean_y_);
}

double BivariateStats::ratio_ci_halfwidth(double confidence) const {
  detail::require(confidence > 0.0 && confidence < 1.0,
                  "ratio_ci_halfwidth: confidence in (0,1)");
  detail::require(n_ >= 2, "ratio_ci_halfwidth: need at least 2 pairs");
  const double z = normal_quantile(0.5 + 0.5 * confidence);
  return z * ratio_std_error();
}

double percentile(std::vector<double> samples, double p) {
  detail::require(!samples.empty(), "percentile: empty sample set");
  detail::require(p >= 0.0 && p <= 1.0, "percentile: p in [0,1]");
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples[0];
  const double idx = p * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

}  // namespace relkit
