#include "grammar/rule_intervals.h"

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "datasets/simple.h"
#include "grammar/sequitur.h"

namespace gva {
namespace {

// Builds a small hand-made decomposition: words at known offsets with a
// known grammar, so the interval mapping can be verified exactly.
TEST(RuleIntervalsTest, MapsOccurrencesThroughOffsets) {
  // Input words: a b x y a b (after numerosity reduction) with offsets
  // chosen unevenly, window 10, series length 100.
  std::vector<std::string> words{"a", "b", "x", "y", "a", "b"};
  auto wg = InferGrammarFromWords(words);
  ASSERT_TRUE(wg.ok());
  ASSERT_EQ(wg->grammar.size(), 2u);  // R1 = a b used twice

  SaxRecords records;
  records.words = SaxWords(1);
  for (const std::string& word : words) {
    records.words.push_back(PackSaxLetters(word));
  }
  records.offsets = {0, 5, 17, 30, 42, 60};

  std::vector<RuleInterval> intervals =
      MapRuleIntervals(wg->grammar, records, 10, 100);
  ASSERT_EQ(intervals.size(), 2u);
  // Occurrence 1: tokens [0, 1] -> series [0, 5 + 10).
  EXPECT_EQ(intervals[0].rule, 1);
  EXPECT_EQ(intervals[0].span, (Interval{0, 15}));
  EXPECT_EQ(intervals[0].rule_frequency, 2u);
  // Occurrence 2: tokens [4, 5] -> series [42, 60 + 10).
  EXPECT_EQ(intervals[1].span, (Interval{42, 70}));
}

TEST(RuleIntervalsTest, ClampsAtSeriesEnd) {
  std::vector<std::string> words{"a", "b", "a", "b"};
  auto wg = InferGrammarFromWords(words);
  ASSERT_TRUE(wg.ok());
  SaxRecords records;
  records.words = SaxWords(1);
  for (const std::string& word : words) {
    records.words.push_back(PackSaxLetters(word));
  }
  records.offsets = {0, 3, 80, 95};
  std::vector<RuleInterval> intervals =
      MapRuleIntervals(wg->grammar, records, 10, 100);
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_EQ(intervals[1].span, (Interval{80, 100}));  // 95 + 10 clamped
}

TEST(DensityCurveTest, MatchesNaiveCounting) {
  std::vector<RuleInterval> intervals{
      {1, 2, {0, 10}}, {1, 2, {5, 15}}, {2, 3, {8, 12}}, {3, 2, {90, 100}}};
  const size_t m = 100;
  std::vector<uint32_t> density = RuleDensityCurve(intervals, m);
  ASSERT_EQ(density.size(), m);
  for (size_t i = 0; i < m; ++i) {
    uint32_t expected = 0;
    for (const RuleInterval& ri : intervals) {
      if (ri.span.Contains(i)) {
        ++expected;
      }
    }
    EXPECT_EQ(density[i], expected) << "i=" << i;
  }
}

TEST(DensityCurveTest, EmptyIntervals) {
  std::vector<uint32_t> density = RuleDensityCurve({}, 10);
  for (uint32_t d : density) {
    EXPECT_EQ(d, 0u);
  }
}

TEST(DensityCurveTest, IntervalBeyondSeriesIsClamped) {
  std::vector<RuleInterval> intervals{{1, 2, {8, 25}}};
  std::vector<uint32_t> density = RuleDensityCurve(intervals, 10);
  EXPECT_EQ(density[7], 0u);
  EXPECT_EQ(density[8], 1u);
  EXPECT_EQ(density[9], 1u);
}

TEST(ZeroCoverageTest, FindsGapsBetweenIntervals) {
  std::vector<uint32_t> density{1, 1, 0, 0, 0, 2, 0, 1, 0, 0};
  std::vector<RuleInterval> gaps = ZeroCoverageIntervals(density, 2);
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_EQ(gaps[0].span, (Interval{2, 5}));
  EXPECT_EQ(gaps[1].span, (Interval{8, 10}));
  EXPECT_EQ(gaps[0].rule, RuleInterval::kGapRule);
  EXPECT_EQ(gaps[0].rule_frequency, 0u);
}

TEST(ZeroCoverageTest, MinLengthFiltersShortGaps) {
  std::vector<uint32_t> density{0, 1, 0, 0, 1, 0, 0, 0};
  EXPECT_EQ(ZeroCoverageIntervals(density, 3).size(), 1u);
  EXPECT_EQ(ZeroCoverageIntervals(density, 1).size(), 3u);
}

TEST(ZeroCoverageTest, AllZeroIsOneGap) {
  std::vector<uint32_t> density(20, 0);
  std::vector<RuleInterval> gaps = ZeroCoverageIntervals(density, 1);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].span, (Interval{0, 20}));
}

// End-to-end consistency on a real decomposition: the density curve computed
// from mapped intervals must equal naive recounting, and every interval must
// sit inside the series.
TEST(DecompositionConsistencyTest, IntervalsAndDensityAgree) {
  LabeledSeries data = MakeSineWithAnomaly(1200, 60.0, 0.02, 600, 80, 5);
  SaxOptions sax;
  sax.window = 120;
  sax.paa_size = 4;
  sax.alphabet_size = 4;
  auto decomposition = DecomposeSeries(data.series, sax);
  ASSERT_TRUE(decomposition.ok());
  const auto& d = *decomposition;
  EXPECT_EQ(d.density.size(), data.series.size());
  for (const RuleInterval& ri : d.intervals) {
    EXPECT_LE(ri.span.end, data.series.size());
    EXPECT_GT(ri.span.length(), 0u);
    EXPECT_GE(ri.rule, 1);
    EXPECT_GE(ri.rule_frequency, 2u);
  }
  std::vector<uint32_t> recount(data.series.size(), 0);
  for (const RuleInterval& ri : d.intervals) {
    for (size_t i = ri.span.start; i < ri.span.end; ++i) {
      ++recount[i];
    }
  }
  EXPECT_EQ(d.density, recount);
}

}  // namespace
}  // namespace gva
