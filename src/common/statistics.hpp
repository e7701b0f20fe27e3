// Streaming statistics and confidence intervals for the simulator and the
// uncertainty-propagation module.
#pragma once

#include <cstddef>
#include <vector>

namespace relkit {

/// Welford online mean/variance accumulator. It has no merge: the parallel
/// simulator and uncertainty paths add their values in item order after
/// the fan-out, which keeps their jobs-1 bits at every worker count.
class OnlineStats {
 public:
  /// Adds one observation.
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Unbiased sample variance (0 if fewer than 2 observations).
  double variance() const;
  double stddev() const;
  /// Standard error of the mean.
  double std_error() const;
  double min() const { return min_; }
  double max() const { return max_; }

  /// Two-sided normal-approximation CI half-width at the given confidence
  /// level (e.g. 0.95). Requires count() >= 2.
  double ci_halfwidth(double confidence = 0.95) const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Paired Welford accumulator for ratio estimators E[X]/E[Y] (regenerative
/// simulation: X = per-cycle reward, Y = per-cycle length). Tracks means,
/// second moments and the cross moment so the delta-method variance of the
/// ratio is available online; merge() combines the rare-event engine's
/// per-chunk accumulators deterministically (Chan et al.).
class BivariateStats {
 public:
  /// Adds one (x, y) pair.
  void add(double x, double y);

  /// Folds another accumulator in; merging in a fixed chunk order keeps the
  /// result independent of the worker count.
  void merge(const BivariateStats& other);

  std::size_t count() const { return n_; }
  double mean_x() const { return mean_x_; }
  double mean_y() const { return mean_y_; }
  /// Unbiased sample variances / covariance (0 if fewer than 2 pairs).
  double variance_x() const;
  double variance_y() const;
  double covariance() const;

  /// The ratio estimate mean_x / mean_y. Requires mean_y != 0.
  double ratio() const;
  /// Delta-method standard error of ratio():
  ///   sqrt((Sxx - 2 r Sxy + r^2 Syy) / n) / |mean_y|.
  double ratio_std_error() const;
  /// Two-sided normal-approximation CI half-width of the ratio at the given
  /// confidence level. Requires count() >= 2.
  double ratio_ci_halfwidth(double confidence = 0.95) const;

 private:
  std::size_t n_ = 0;
  double mean_x_ = 0.0;
  double mean_y_ = 0.0;
  double m2x_ = 0.0;
  double m2y_ = 0.0;
  double mxy_ = 0.0;  ///< co-moment sum((x - mean_x)(y - mean_y))
};

/// p-th percentile (p in [0,1]) by linear interpolation; sorts a copy.
double percentile(std::vector<double> samples, double p);

}  // namespace relkit
