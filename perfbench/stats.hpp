// Order statistics for the benchmark's reported timings.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count).
/// Requires a non-empty sample.
double median(std::vector<double> v);

/// A tail percentile the sample can support.
struct Tail {
  double percentile = 50.0;  ///< e.g. 99.0
  double value = 0.0;
};

/// The highest percentile of {99, 95, 90, 75} that has at least ten
/// samples beyond it (nearest-rank), or the median when even p75 has not.
Tail supported_tail(std::vector<double> v);

/// True when `name` is a legal metric name: [A-Za-z0-9_.-]+.
bool valid_metric_name(const std::string& name);

}  // namespace perfbench
