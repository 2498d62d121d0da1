#ifndef GVA_VIZ_REPORT_H_
#define GVA_VIZ_REPORT_H_

#include <string>
#include <vector>

#include "core/rra.h"
#include "core/rule_density_detector.h"
#include "ensemble/ensemble.h"
#include "obs/metrics.h"

namespace gva {

/// Renders the ranked-discord table of the GrammarViz 2.0 anomaly pane
/// (paper Figure 11): rank, position, length, NN distance, source rule.
std::string DiscordTable(const RraDetection& detection);

/// Renders the rule-density anomaly report (paper Figure 12): ranked
/// low-density intervals with their density statistics.
std::string DensityAnomalyTable(const DensityDetection& detection);

/// Renders the ranked ensemble anomaly report: low-score intervals of the
/// aggregated surface with their score statistics.
std::string EnsembleAnomalyTable(const EnsembleDetection& detection);

/// Renders the per-config pane of an ensemble run: one line per grid point
/// with its pipeline statistics, wall time, and substrate-cache outcome,
/// followed by a cache-accounting summary line.
std::string EnsembleConfigTable(const EnsembleDetection& detection);

/// Renders the grammar-rules pane: one line per rule with use count,
/// expansion size in tokens, and mean/min/max mapped subsequence length.
std::string RuleStatsTable(const GrammarDecomposition& decomposition,
                           size_t max_rules = 20);

/// Renders a human-readable summary of a metrics snapshot: a per-stage
/// timing table built from the `stage.<name>.us` / `stage.<name>.count`
/// counter pairs the ScopedSpan instrumentation maintains, followed by the
/// remaining counters/gauges/histograms. Empty string when the snapshot
/// holds nothing (e.g. no ObsSession was active).
std::string MetricsSummaryTable(const std::vector<obs::MetricSample>& samples);

}  // namespace gva

#endif  // GVA_VIZ_REPORT_H_
