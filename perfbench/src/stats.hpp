#ifndef PERFBENCH_STATS_HPP_
#define PERFBENCH_STATS_HPP_

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 1]) of \p values; 0 when empty.
/// Sorts in place.
inline double Percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(i, values.size() - 1)];
}

inline double Median(std::vector<double> values) {
  return Percentile(values, 0.5);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_HPP_
