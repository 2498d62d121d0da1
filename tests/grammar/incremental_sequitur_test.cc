#include <gtest/gtest.h>

#include "grammar/sequitur.h"
#include "util/rng.h"

namespace gva {
namespace {

TEST(IncrementalSequiturTest, RejectsNegativeTokens) {
  IncrementalSequitur s;
  EXPECT_TRUE(s.Append(0).ok());
  EXPECT_FALSE(s.Append(-1).ok());
}

TEST(IncrementalSequiturTest, SnapshotEqualsBatchAtEveryPrefix) {
  Rng rng(21);
  std::vector<int32_t> tokens;
  for (int i = 0; i < 200; ++i) {
    tokens.push_back(static_cast<int32_t>(rng.UniformInt(4)));
  }
  IncrementalSequitur incremental;
  for (size_t n = 0; n < tokens.size(); ++n) {
    ASSERT_TRUE(incremental.Append(tokens[n]).ok());
    if (n % 17 != 0) {  // sample a few prefixes
      continue;
    }
    Grammar snapshot = incremental.ExtractGrammar();
    auto batch = InferGrammar(
        std::span<const int32_t>(tokens.data(), n + 1));
    ASSERT_TRUE(batch.ok());
    // Same rule structure: Sequitur is deterministic, and snapshotting must
    // not disturb the induction.
    ASSERT_EQ(snapshot.size(), batch->size()) << "prefix " << n + 1;
    for (size_t r = 0; r < snapshot.size(); ++r) {
      EXPECT_EQ(snapshot.rule(r).rhs, batch->rule(r).rhs);
      EXPECT_EQ(snapshot.rule(r).occurrences, batch->rule(r).occurrences);
    }
  }
}

TEST(IncrementalSequiturTest, ShapeMatchesExtractedGrammarMidStream) {
  Rng rng(8);
  IncrementalSequitur s;
  EXPECT_EQ(s.Shape().rules, 1u);
  EXPECT_EQ(s.Shape().symbols, 0u);
  for (int i = 0; i < 5000; ++i) {
    // Motif-heavy input, so rules are created, reused and inlined.
    const int32_t t = rng.UniformDouble() < 0.6
                          ? static_cast<int32_t>(i % 7)
                          : static_cast<int32_t>(rng.UniformInt(5));
    ASSERT_TRUE(s.Append(t).ok());
    if (i % 613 != 0 && i != 4999) {
      continue;
    }
    const Grammar g = s.ExtractGrammar();
    size_t symbols = 0;
    for (const GrammarRule& rule : g.rules()) {
      symbols += rule.rhs.size();
    }
    const GrammarShape shape = s.Shape();
    EXPECT_EQ(shape.rules, g.size()) << "after " << i + 1 << " tokens";
    EXPECT_EQ(shape.symbols, symbols) << "after " << i + 1 << " tokens";
  }
  EXPECT_GT(s.Shape().rules, 2u);
}

TEST(IncrementalSequiturTest, AppendContinuesAfterSnapshot) {
  IncrementalSequitur s;
  for (int32_t t : {0, 1, 0, 1}) {
    ASSERT_TRUE(s.Append(t).ok());
  }
  Grammar first = s.ExtractGrammar();
  EXPECT_EQ(first.num_tokens(), 4u);
  for (int32_t t : {0, 1, 0, 1}) {
    ASSERT_TRUE(s.Append(t).ok());
  }
  Grammar second = s.ExtractGrammar();
  EXPECT_EQ(second.num_tokens(), 8u);
  EXPECT_EQ(second.ExpandToTerminals(0),
            (std::vector<int32_t>{0, 1, 0, 1, 0, 1, 0, 1}));
}

TEST(IncrementalSequiturTest, MoveTransfersState) {
  IncrementalSequitur a;
  for (int32_t t : {5, 6, 5, 6}) {
    ASSERT_TRUE(a.Append(t).ok());
  }
  IncrementalSequitur b = std::move(a);
  EXPECT_EQ(b.num_tokens(), 4u);
  EXPECT_EQ(b.ExtractGrammar().ExpandToTerminals(0),
            (std::vector<int32_t>{5, 6, 5, 6}));
}

}  // namespace
}  // namespace gva
