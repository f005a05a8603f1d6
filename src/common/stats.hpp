// Small statistics helpers for benchmark reporting: mean, median,
// quantiles, min and max.
#pragma once

#include <vector>

namespace narma::stats {

double mean(const std::vector<double>& xs);

/// Quantile with linear interpolation; q in [0,1]. Sorts a copy.
double quantile(std::vector<double> xs, double q);
double median(const std::vector<double>& xs);
double min(const std::vector<double>& xs);
double max(const std::vector<double>& xs);

}  // namespace narma::stats
