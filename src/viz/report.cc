#include "viz/report.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "grammar/grammar_printer.h"
#include "util/strings.h"

namespace gva {

std::string DiscordTable(const RraDetection& detection) {
  std::ostringstream out;
  out << StrFormat("%-5s %-10s %-8s %-12s %s\n", "Rank", "Position", "Length",
                   "NN distance", "Rule");
  for (size_t i = 0; i < detection.result.discords.size(); ++i) {
    const DiscordRecord& d = detection.result.discords[i];
    std::string rule = d.rule >= 0 ? StrFormat("R%d", d.rule)
                                   : std::string("zero-coverage gap");
    out << StrFormat("%-5zu %-10zu %-8zu %-12.5f %s\n", i, d.position,
                     d.length, d.distance, rule.c_str());
  }
  out << StrFormat("distance calls: %s\n",
                   FormatWithThousands(detection.result.distance_calls)
                       .c_str());
  return out.str();
}

std::string DensityAnomalyTable(const DensityDetection& detection) {
  std::ostringstream out;
  out << StrFormat("%-5s %-16s %-8s %-12s %s\n", "Rank", "Interval", "Length",
                   "MinDensity", "MeanDensity");
  for (const DensityAnomaly& a : detection.anomalies) {
    out << StrFormat("%-5zu [%zu, %zu)%*s %-8zu %-12u %.3f\n", a.rank,
                     a.span.start, a.span.end, 0, "", a.span.length(),
                     a.min_density, a.mean_density);
  }
  return out.str();
}

std::string EnsembleAnomalyTable(const EnsembleDetection& detection) {
  std::ostringstream out;
  out << StrFormat("%-5s %-16s %-8s %-10s %s\n", "Rank", "Interval", "Length",
                   "MinScore", "MeanScore");
  for (const EnsembleAnomaly& a : detection.anomalies) {
    out << StrFormat("%-5zu [%zu, %zu)%*s %-8zu %-10.4f %.4f\n", a.rank,
                     a.span.start, a.span.end, 0, "", a.span.length(),
                     a.min_score, a.mean_score);
  }
  return out.str();
}

std::string EnsembleConfigTable(const EnsembleDetection& detection) {
  std::ostringstream out;
  out << StrFormat("%-8s %-5s %-5s %-8s %-7s %-10s %-8s %s\n", "Window",
                   "PAA", "Alpha", "Words", "Rules", "Intervals", "Wall ms",
                   "Substrate");
  for (const EnsembleConfigResult& c : detection.configs) {
    if (!c.ok) {
      out << StrFormat("%-8zu %-5zu %-5zu skipped: %s\n", c.config.window,
                       c.config.paa_size, c.config.alphabet_size,
                       c.error.c_str());
      continue;
    }
    out << StrFormat("%-8zu %-5zu %-5zu %-8zu %-7zu %-10zu %-8.2f %s\n",
                     c.config.window, c.config.paa_size,
                     c.config.alphabet_size, c.words, c.rules, c.intervals,
                     static_cast<double>(c.wall_us) / 1000.0,
                     c.cache_hit ? "cache hit" : "computed");
  }
  out << StrFormat(
      "configs used: %zu/%zu, substrate cache: %llu hits / %llu misses\n",
      detection.configs_used, detection.configs.size(),
      static_cast<unsigned long long>(detection.cache_hits),
      static_cast<unsigned long long>(detection.cache_misses));
  return out.str();
}

std::string RuleStatsTable(const GrammarDecomposition& decomposition,
                           size_t max_rules) {
  // Aggregate per-rule interval statistics.
  const size_t num_rules = decomposition.grammar.grammar.size();
  struct Stats {
    size_t count = 0;
    size_t min_len = 0;
    size_t max_len = 0;
    size_t total_len = 0;
  };
  std::vector<Stats> stats(num_rules);
  for (const RuleInterval& ri : decomposition.intervals) {
    if (ri.rule < 0) {
      continue;
    }
    Stats& s = stats[static_cast<size_t>(ri.rule)];
    const size_t len = ri.span.length();
    if (s.count == 0) {
      s.min_len = len;
      s.max_len = len;
    } else {
      s.min_len = std::min(s.min_len, len);
      s.max_len = std::max(s.max_len, len);
    }
    s.total_len += len;
    ++s.count;
  }

  std::ostringstream out;
  out << StrFormat("%-6s %-6s %-10s %-10s %-12s %s\n", "Rule", "Used",
                   "MeanLen", "MinLen", "MaxLen", "RHS");
  const size_t limit = std::min(max_rules + 1, num_rules);
  for (size_t r = 1; r < limit; ++r) {
    const Stats& s = stats[r];
    const double mean =
        s.count > 0 ? static_cast<double>(s.total_len) /
                          static_cast<double>(s.count)
                    : 0.0;
    out << StrFormat("R%-5zu %-6zu %-10.1f %-10zu %-12zu %s\n", r, s.count,
                     mean, s.min_len, s.max_len,
                     RuleRhsToString(decomposition.grammar, r).c_str());
  }
  if (num_rules > limit) {
    out << StrFormat("... (%zu more rules)\n", num_rules - limit);
  }
  return out.str();
}

std::string MetricsSummaryTable(
    const std::vector<obs::MetricSample>& samples) {
  if (samples.empty()) {
    return std::string();
  }

  // Pair up the span-derived stage counters: `stage.<name>.us` carries the
  // accumulated wall time, `stage.<name>.count` the number of spans.
  struct StageRow {
    std::string name;
    uint64_t us = 0;
    uint64_t count = 0;
  };
  std::vector<StageRow> stages;
  std::vector<const obs::MetricSample*> rest;
  auto stage_row = [&](const std::string& stage) -> StageRow& {
    for (StageRow& row : stages) {
      if (row.name == stage) {
        return row;
      }
    }
    stages.push_back(StageRow{stage, 0, 0});
    return stages.back();
  };
  for (const obs::MetricSample& s : samples) {
    if (s.kind == obs::MetricSample::Kind::kCounter &&
        s.name.rfind("stage.", 0) == 0) {
      if (s.name.size() > 3 && s.name.ends_with(".us")) {
        stage_row(s.name.substr(6, s.name.size() - 9)).us = s.counter_value;
        continue;
      }
      if (s.name.size() > 6 && s.name.ends_with(".count")) {
        stage_row(s.name.substr(6, s.name.size() - 12)).count =
            s.counter_value;
        continue;
      }
    }
    rest.push_back(&s);
  }

  std::ostringstream out;
  if (!stages.empty()) {
    // Slowest stage first — the reason anyone reads this table.
    std::stable_sort(stages.begin(), stages.end(),
                     [](const StageRow& a, const StageRow& b) {
                       return a.us > b.us;
                     });
    out << StrFormat("%-28s %8s %12s %12s\n", "Stage", "Spans", "Total ms",
                     "Mean ms");
    for (const StageRow& s : stages) {
      const double total_ms = static_cast<double>(s.us) / 1000.0;
      const double mean_ms =
          s.count > 0 ? total_ms / static_cast<double>(s.count) : 0.0;
      out << StrFormat("%-28s %8llu %12.3f %12.3f\n", s.name.c_str(),
                       static_cast<unsigned long long>(s.count), total_ms,
                       mean_ms);
    }
  }
  if (!rest.empty()) {
    if (!stages.empty()) {
      out << "\n";
    }
    out << StrFormat("%-40s %s\n", "Metric", "Value");
    for (const obs::MetricSample* s : rest) {
      switch (s->kind) {
        case obs::MetricSample::Kind::kCounter:
          out << StrFormat("%-40s %s\n", s->name.c_str(),
                           FormatWithThousands(s->counter_value).c_str());
          break;
        case obs::MetricSample::Kind::kGauge:
          out << StrFormat("%-40s %lld\n", s->name.c_str(),
                           static_cast<long long>(s->gauge_value));
          break;
        case obs::MetricSample::Kind::kHistogram:
          // Percentiles from the shared base-2 buckets: exact to within a
          // bucket, which beats eyeballing a raw bucket dump.
          out << StrFormat(
              "%-40s count=%s mean=%.4f p50=%.1f p95=%.1f p99=%.1f\n",
              s->name.c_str(),
              FormatWithThousands(s->histogram_count).c_str(),
              s->histogram_count > 0
                  ? s->histogram_sum /
                        static_cast<double>(s->histogram_count)
                  : 0.0,
              obs::HistogramQuantile(*s, 0.50),
              obs::HistogramQuantile(*s, 0.95),
              obs::HistogramQuantile(*s, 0.99));
          break;
      }
    }
  }
  return out.str();
}

}  // namespace gva
