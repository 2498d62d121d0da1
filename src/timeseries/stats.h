#ifndef GVA_TIMESERIES_STATS_H_
#define GVA_TIMESERIES_STATS_H_

#include <span>

namespace gva {

/// Arithmetic mean. Returns 0 for an empty span.
double Mean(std::span<const double> values);

/// Mean and population standard deviation of a span.
struct MeanStdDev {
  double mean = 0.0;
  double sd = 0.0;
};

/// Mean and population standard deviation in two passes — one for the
/// mean, one for the squared deviations from it. Variance, StdDev and
/// ZNormalize all go through this one loop, so their bits agree by
/// construction. Both are 0 for an empty span.
MeanStdDev MeanAndStdDev(std::span<const double> values);

/// Population standard deviation (divides by N, as in the original SAX
/// papers and the GrammarViz implementation). Returns 0 for spans with
/// fewer than 1 element.
double StdDev(std::span<const double> values);

/// Population variance.
double Variance(std::span<const double> values);

/// Smallest element; +inf for an empty span.
double Min(std::span<const double> values);

/// Largest element; -inf for an empty span.
double Max(std::span<const double> values);

/// Index of the first smallest element; 0 for an empty span.
size_t ArgMin(std::span<const double> values);

/// Index of the first largest element; 0 for an empty span.
size_t ArgMax(std::span<const double> values);

}  // namespace gva

#endif  // GVA_TIMESERIES_STATS_H_
