// Differential correctness suite for the streaming engine: the streaming
// report must be bit-for-bit identical to the batch detector run over the
// same suffix/horizon, at every report cadence, with the batch side
// computed through the group discretizer on concurrent pool lanes (so the
// ThreadPool is exercised and the suite runs under tsan via the
// `concurrency` label).
// Streaming changes *when* work happens, never the result.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/rule_density_detector.h"
#include "core/streaming.h"
#include "datasets/simple.h"
#include "sax/sax_transform.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace gva {
namespace {

/// Batch detection over `suffix` computed through the group discretizer
/// run concurrently on `num_threads` pool lanes (every lane discretizes the
/// suffix and all must agree) -> decomposition tail -> anomaly extraction.
/// By DiscretizeGroup's exactness contract this equals
/// DetectDensityAnomalies(suffix, sax, density) for every lane count.
DensityDetection BatchDetect(std::span<const double> suffix,
                             const SaxOptions& sax,
                             const DensityAnomalyOptions& density,
                             size_t num_threads) {
  std::vector<StatusOr<std::vector<SaxRecords>>> lanes(
      num_threads, Status::Internal("lane did not run"));
  ThreadPool::ParallelFor(num_threads, 0, num_threads,
                          [&](size_t begin, size_t end, size_t) {
                            for (size_t lane = begin; lane < end; ++lane) {
                              lanes[lane] = DiscretizeGroup(
                                  suffix, sax, {&sax.alphabet_size, 1});
                            }
                          });
  GVA_CHECK(lanes[0].ok()) << lanes[0].status().ToString();
  for (const auto& lane : lanes) {
    EXPECT_TRUE(lane.ok() && lane->front().words == lanes[0]->front().words &&
                lane->front().offsets == lanes[0]->front().offsets);
  }
  SaxRecords records = std::move(lanes[0]->front());
  auto decomposition =
      DecomposeSeriesWithRecords(suffix, sax, std::move(records));
  EXPECT_TRUE(decomposition.ok()) << decomposition.status().ToString();
  DensityDetection detection;
  detection.decomposition = std::move(*decomposition);
  detection.anomalies = FindLowDensityIntervals(
      detection.decomposition.density, sax.window, density);
  return detection;
}

void ExpectIdentical(const DensityDetection& streaming,
                     const DensityDetection& batch) {
  ASSERT_EQ(streaming.decomposition.records.words,
            batch.decomposition.records.words);
  ASSERT_EQ(streaming.decomposition.records.offsets,
            batch.decomposition.records.offsets);
  ASSERT_EQ(streaming.decomposition.density, batch.decomposition.density);
  ASSERT_EQ(streaming.anomalies.size(), batch.anomalies.size());
  for (size_t i = 0; i < batch.anomalies.size(); ++i) {
    EXPECT_EQ(streaming.anomalies[i].span, batch.anomalies[i].span);
    EXPECT_EQ(streaming.anomalies[i].min_density,
              batch.anomalies[i].min_density);
    EXPECT_EQ(streaming.anomalies[i].mean_density,
              batch.anomalies[i].mean_density);
    EXPECT_EQ(streaming.anomalies[i].rank, batch.anomalies[i].rank);
  }
}

struct Cadence {
  size_t report_every;
};

class StreamingDifferentialTest : public ::testing::TestWithParam<Cadence> {};

// Horizon-bounded streaming vs the batch detector on the retained suffix,
// replayed at the parameterized report cadence and checked against both a
// single-threaded and a 4-thread batch substrate.
TEST_P(StreamingDifferentialTest, StreamEqualsBatchOnSuffix) {
  const size_t report_every = GetParam().report_every;
  LabeledSeries data = MakeSineWithAnomaly(3000, 70.0, 0.04, 2500, 80, 29);
  StreamingOptions opts;
  opts.sax.window = 100;
  opts.sax.paa_size = 5;
  opts.sax.alphabet_size = 4;
  opts.density.threshold_fraction = 0.05;
  opts.horizon = 600;

  auto monitor = StreamingAnomalyMonitor::Create(opts);
  ASSERT_TRUE(monitor.ok());

  // Every cadence tick draws a report (exercising the difference-updated
  // density curve); the expensive batch recomputation is spot-checked on a
  // subsample of ~20 reports so the fine cadences stay tractable under
  // sanitizers.
  const size_t reports_expected = data.series.size() / report_every;
  const size_t check_every = std::max<size_t>(1, reports_expected / 20);
  size_t reports = 0;
  size_t checked = 0;
  for (size_t i = 0; i < data.series.size(); ++i) {
    monitor->Push(data.series[i]);
    if ((i + 1) % report_every != 0 || i + 1 < opts.sax.window) {
      continue;
    }
    auto report = monitor->Report();
    ASSERT_TRUE(report.ok()) << "at sample " << i + 1;
    ASSERT_EQ(report->suffix_start + report->suffix_length, i + 1);
    if (++reports % check_every != 0) {
      continue;
    }
    std::span<const double> suffix(
        data.series.values().data() + report->suffix_start,
        report->suffix_length);
    ExpectIdentical(report->detection,
                    BatchDetect(suffix, opts.sax, opts.density, 1));
    ExpectIdentical(report->detection,
                    BatchDetect(suffix, opts.sax, opts.density, 4));
    ++checked;
  }
  EXPECT_GE(checked, 2u) << "cadence too coarse to prove anything";
}

// Unbounded mode (horizon == 0): the report covers the full prefix and
// equals the batch detector on it, independent of cadence.
TEST_P(StreamingDifferentialTest, UnboundedStreamEqualsBatchOnPrefix) {
  const size_t report_every = GetParam().report_every;
  LabeledSeries data = MakeSineWithAnomaly(1400, 50.0, 0.03, 900, 60, 31);
  StreamingOptions opts;
  opts.sax.window = 80;
  opts.sax.paa_size = 4;
  opts.sax.alphabet_size = 5;

  auto monitor = StreamingAnomalyMonitor::Create(opts);
  ASSERT_TRUE(monitor.ok());

  const size_t reports_expected = data.series.size() / report_every;
  const size_t check_every = std::max<size_t>(1, reports_expected / 15);
  size_t reports = 0;
  for (size_t i = 0; i < data.series.size(); ++i) {
    monitor->Push(data.series[i]);
    if ((i + 1) % report_every != 0 || i + 1 < opts.sax.window) {
      continue;
    }
    auto report = monitor->Report();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->suffix_start, 0u);
    if (++reports % check_every != 0 && i + 1 != data.series.size()) {
      continue;
    }
    std::span<const double> prefix(data.series.values().data(), i + 1);
    ExpectIdentical(report->detection,
                    BatchDetect(prefix, opts.sax, opts.density, 4));
  }
}

// Cadence-independence stated directly: monitors replaying the same stream
// under different report schedules end in identical final reports.
TEST(StreamingDifferentialTest2, FinalReportIndependentOfCadence) {
  LabeledSeries data = MakeSineWithAnomaly(2200, 60.0, 0.05, 1800, 70, 41);
  StreamingOptions opts;
  opts.sax.window = 90;
  opts.sax.paa_size = 3;
  opts.sax.alphabet_size = 4;
  opts.horizon = 400;

  std::vector<size_t> cadences = {1, 113, 2200};
  std::vector<StreamingReport> finals;
  for (size_t cadence : cadences) {
    auto monitor = StreamingAnomalyMonitor::Create(opts);
    ASSERT_TRUE(monitor.ok());
    for (size_t i = 0; i < data.series.size(); ++i) {
      monitor->Push(data.series[i]);
      if ((i + 1) % cadence == 0 && i + 1 >= opts.sax.window) {
        ASSERT_TRUE(monitor->Report().ok());
      }
    }
    auto report = monitor->Report();
    ASSERT_TRUE(report.ok());
    finals.push_back(std::move(*report));
  }
  for (size_t i = 1; i < finals.size(); ++i) {
    EXPECT_EQ(finals[i].suffix_start, finals[0].suffix_start);
    EXPECT_EQ(finals[i].suffix_length, finals[0].suffix_length);
    ExpectIdentical(finals[i].detection, finals[0].detection);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cadences, StreamingDifferentialTest,
    ::testing::Values(Cadence{1}, Cadence{251}, Cadence{997}),
    [](const ::testing::TestParamInfo<Cadence>& cadence_info) {
      return "every" + std::to_string(cadence_info.param.report_every);
    });

}  // namespace
}  // namespace gva
