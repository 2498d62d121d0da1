#include "timeseries/stats.h"

#include <cmath>
#include <limits>

namespace gva {

double Mean(std::span<const double> values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

namespace {

struct MeanVariance {
  double mean = 0.0;
  double variance = 0.0;
};

/// The mean and the population variance about it: the one squared-deviation
/// loop of this file.
MeanVariance MeanAndVariance(std::span<const double> values) {
  if (values.empty()) {
    return {};
  }
  const double mean = Mean(values);
  double sum_sq = 0.0;
  for (double v : values) {
    const double d = v - mean;
    sum_sq += d * d;
  }
  return {mean, sum_sq / static_cast<double>(values.size())};
}

}  // namespace

MeanStdDev MeanAndStdDev(std::span<const double> values) {
  const MeanVariance m = MeanAndVariance(values);
  return {m.mean, std::sqrt(m.variance)};
}

double Variance(std::span<const double> values) {
  return MeanAndVariance(values).variance;
}

double StdDev(std::span<const double> values) {
  return MeanAndStdDev(values).sd;
}

double Min(std::span<const double> values) {
  double result = std::numeric_limits<double>::infinity();
  for (double v : values) {
    if (v < result) {
      result = v;
    }
  }
  return result;
}

double Max(std::span<const double> values) {
  double result = -std::numeric_limits<double>::infinity();
  for (double v : values) {
    if (v > result) {
      result = v;
    }
  }
  return result;
}

size_t ArgMin(std::span<const double> values) {
  size_t best = 0;
  for (size_t i = 1; i < values.size(); ++i) {
    if (values[i] < values[best]) {
      best = i;
    }
  }
  return best;
}

size_t ArgMax(std::span<const double> values) {
  size_t best = 0;
  for (size_t i = 1; i < values.size(); ++i) {
    if (values[i] > values[best]) {
      best = i;
    }
  }
  return best;
}

}  // namespace gva
