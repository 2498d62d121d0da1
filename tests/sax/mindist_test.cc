#include "sax/mindist.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "discord/distance.h"
#include "sax/paa.h"
#include "sax/sax_transform.h"
#include "timeseries/znorm.h"
#include "util/rng.h"

namespace gva {
namespace {

TEST(MinDistTest, IdenticalWordsAreZero) {
  NormalAlphabet a(4);
  EXPECT_DOUBLE_EQ(MinDist("abcd", "abcd", 64, a), 0.0);
}

TEST(MinDistTest, AdjacentLettersAreZero) {
  NormalAlphabet a(4);
  EXPECT_DOUBLE_EQ(MinDist("abba", "baab", 64, a), 0.0);
  EXPECT_TRUE(
      MinDistIsZero(PackSaxLetters("abba"), PackSaxLetters("baab"), 4, a));
}

TEST(MinDistTest, FarLettersArePositive) {
  NormalAlphabet a(4);
  EXPECT_GT(MinDist("aaaa", "dddd", 64, a), 0.0);
  EXPECT_FALSE(
      MinDistIsZero(PackSaxLetters("aaaa"), PackSaxLetters("dddd"), 4, a));
}

TEST(MinDistTest, ScalesWithSqrtCompressionRatio) {
  NormalAlphabet a(4);
  const double d64 = MinDist("aacc", "ccaa", 64, a);
  const double d256 = MinDist("aacc", "ccaa", 256, a);
  EXPECT_NEAR(d256 / d64, 2.0, 1e-9);
}

TEST(MinDistTest, Symmetric) {
  NormalAlphabet a(6);
  EXPECT_DOUBLE_EQ(MinDist("afcdbe", "cbafed", 60, a),
                   MinDist("cbafed", "afcdbe", 60, a));
}

// The defining SAX property: MINDIST lower-bounds the Euclidean distance
// between the z-normalized subsequences. Swept over alphabet and word sizes.
class MinDistLowerBoundTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(MinDistLowerBoundTest, LowerBoundsTrueDistance) {
  const auto [alpha, paa] = GetParam();
  const size_t n = 120;
  Rng rng(alpha * 100 + paa);
  NormalAlphabet alphabet(alpha);
  SaxOptions opts;
  opts.window = n;
  opts.paa_size = paa;
  opts.alphabet_size = alpha;

  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> x;
    std::vector<double> y;
    double vx = 0.0;
    double vy = 0.0;
    for (size_t i = 0; i < n; ++i) {
      vx += rng.Gaussian();
      vy += rng.Gaussian();
      x.push_back(vx);
      y.push_back(vy);
    }
    const std::vector<double> zx = ZNormalized(x);
    const std::vector<double> zy = ZNormalized(y);
    const double true_dist = EuclideanDistance(zx, zy);
    std::vector<uint64_t> code(SaxLaneCount(paa));
    SaxWordForWindow(x, opts, alphabet, code.data());
    const std::string wx = SaxLetters(code, paa);
    SaxWordForWindow(y, opts, alphabet, code.data());
    const std::string wy = SaxLetters(code, paa);
    const double lower = MinDist(wx, wy, n, alphabet);
    EXPECT_LE(lower, true_dist + 1e-9)
        << "alpha=" << alpha << " paa=" << paa << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MinDistLowerBoundTest,
    ::testing::Combine(::testing::Values<size_t>(3, 4, 5, 8, 10),
                       ::testing::Values<size_t>(2, 4, 6, 8)));

}  // namespace
}  // namespace gva
