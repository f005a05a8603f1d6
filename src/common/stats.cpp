#include "common/stats.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace narma::stats {

double mean(const std::vector<double>& xs) {
  NARMA_CHECK(!xs.empty());
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double quantile(std::vector<double> xs, double q) {
  NARMA_CHECK(!xs.empty());
  NARMA_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

double min(const std::vector<double>& xs) {
  NARMA_CHECK(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double max(const std::vector<double>& xs) {
  NARMA_CHECK(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

}  // namespace narma::stats
