#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/statistics.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  return relkit::percentile(std::move(v), 0.5);
}

Tail supported_tail(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("tail of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (const double p : {99.0, 95.0, 90.0, 75.0}) {
    // Nearest rank: the value at 1-based rank ceil(p/100 * n).
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (rank >= 1 && n - rank >= 10) return {p, v[rank - 1]};
  }
  return {50.0, median(v)};
}

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench
