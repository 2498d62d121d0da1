#ifndef GVA_CORE_PIPELINE_H_
#define GVA_CORE_PIPELINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "grammar/rule_intervals.h"
#include "grammar/sequitur.h"
#include "sax/sax_transform.h"
#include "util/statusor.h"

namespace gva {

/// The grammar decomposition both detectors share (paper Section 3):
/// SAX discretization -> numerosity reduction -> Sequitur -> rule-to-series
/// interval mapping -> rule density curve.
struct GrammarDecomposition {
  SaxRecords records;
  WordGrammar grammar;
  std::vector<RuleInterval> intervals;
  std::vector<uint32_t> density;
  size_t series_length = 0;
  size_t window = 0;
};

/// Runs the full decomposition. Fails on invalid SAX options or a series
/// shorter than the window. Linear time and space in the series length.
StatusOr<GrammarDecomposition> DecomposeSeries(std::span<const double> series,
                                               const SaxOptions& options);

/// The decomposition tail for callers that already discretized the series
/// (e.g. the ensemble engine, whose substrate cache produces SaxRecords
/// from one shared DiscretizeGroup pass): Sequitur -> interval mapping ->
/// density curve.
/// `records` must be the discretization of `series` under `options`;
/// given that, the result is identical to DecomposeSeries(series, options).
StatusOr<GrammarDecomposition> DecomposeSeriesWithRecords(
    std::span<const double> series, const SaxOptions& options,
    SaxRecords records);

}  // namespace gva

#endif  // GVA_CORE_PIPELINE_H_
