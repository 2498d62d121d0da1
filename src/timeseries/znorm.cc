#include "timeseries/znorm.h"

#include "timeseries/stats.h"

namespace gva {

void ZNormalize(std::span<const double> values, std::vector<double>& out,
                double epsilon) {
  out.resize(values.size());
  if (values.empty()) {
    return;
  }
  const auto [mean, sd] = MeanAndStdDev(values);
  if (sd < epsilon) {
    for (size_t i = 0; i < values.size(); ++i) {
      out[i] = values[i] - mean;
    }
    return;
  }
  const double inv_sd = 1.0 / sd;
  for (size_t i = 0; i < values.size(); ++i) {
    out[i] = (values[i] - mean) * inv_sd;
  }
}

std::vector<double> ZNormalized(std::span<const double> values,
                                double epsilon) {
  std::vector<double> out;
  ZNormalize(values, out, epsilon);
  return out;
}

}  // namespace gva
