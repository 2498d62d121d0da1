#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "datasets/simple.h"

namespace gva {
namespace {

SaxOptions Opts(size_t window, size_t paa = 4, size_t alpha = 4) {
  SaxOptions o;
  o.window = window;
  o.paa_size = paa;
  o.alphabet_size = alpha;
  return o;
}

TEST(PipelineTest, PopulatesEveryField) {
  std::vector<double> series = MakeSine(1000, 50.0, 0.03, 1);
  auto d = DecomposeSeries(series, Opts(100));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->series_length, series.size());
  EXPECT_EQ(d->window, 100u);
  EXPECT_FALSE(d->records.empty());
  EXPECT_EQ(d->records.size(), d->grammar.tokens.size());
  EXPECT_GE(d->grammar.grammar.size(), 1u);
  EXPECT_EQ(d->density.size(), series.size());
}

TEST(PipelineTest, TokensRoundTripThroughVocabulary) {
  std::vector<double> series = MakeSine(800, 40.0, 0.02, 2);
  auto d = DecomposeSeries(series, Opts(80));
  ASSERT_TRUE(d.ok());
  // Each token id decodes to the word recorded at the same index.
  for (size_t i = 0; i < d->records.size(); ++i) {
    EXPECT_EQ(d->grammar.WordOf(d->grammar.tokens[i]),
              d->records.words.Letters(i));
  }
  // The grammar's R0 expansion reproduces the token stream.
  EXPECT_EQ(d->grammar.grammar.ExpandToTerminals(0), d->grammar.tokens);
}

TEST(PipelineTest, IntervalsReferenceExistingRules) {
  std::vector<double> series = MakeSine(1200, 60.0, 0.05, 3);
  auto d = DecomposeSeries(series, Opts(120));
  ASSERT_TRUE(d.ok());
  for (const RuleInterval& ri : d->intervals) {
    ASSERT_GE(ri.rule, 1);
    ASSERT_LT(static_cast<size_t>(ri.rule), d->grammar.grammar.size());
    const GrammarRule& rule =
        d->grammar.grammar.rule(static_cast<size_t>(ri.rule));
    EXPECT_EQ(ri.rule_frequency, rule.occurrences.size());
  }
}

TEST(PipelineTest, ErrorsPropagate) {
  std::vector<double> series(10, 0.0);
  EXPECT_FALSE(DecomposeSeries(series, Opts(100)).ok());  // too short
  EXPECT_FALSE(DecomposeSeries(series, Opts(0)).ok());    // invalid window
  SaxOptions bad = Opts(8);
  bad.paa_size = 16;
  EXPECT_FALSE(DecomposeSeries(series, bad).ok());  // paa > window
}

TEST(PipelineTest, ConstantSeriesDegeneratesGracefully) {
  std::vector<double> series(500, 2.0);
  auto d = DecomposeSeries(series, Opts(50));
  ASSERT_TRUE(d.ok());
  // One word survives reduction; no rules can form from a single token.
  EXPECT_EQ(d->records.size(), 1u);
  EXPECT_EQ(d->grammar.grammar.size(), 1u);
  EXPECT_TRUE(d->intervals.empty());
  for (uint32_t v : d->density) {
    EXPECT_EQ(v, 0u);
  }
}

}  // namespace
}  // namespace gva
