// Byte-exactness property tests for the incremental (prefix-sum) SAX
// kernel: Discretize / DiscretizeAllWindows must produce exactly the
// records a naive per-window SaxWordForWindow loop produces, across a grid
// of (window, paa_size, alphabet_size, numerosity mode) and series shapes
// — including the shapes designed to stress the kernel's numerical guards
// (flat plateaus, sub-epsilon noise, large offsets that inflate the prefix
// sums, and non-divisible window/paa geometry).

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/simple.h"
#include "sax/mindist.h"
#include "sax/sax_transform.h"
#include "timeseries/sliding_window.h"
#include "util/rng.h"

namespace gva {
namespace {

/// Words as letters with their window offsets.
struct LetterRecords {
  std::vector<std::string> words;
  std::vector<size_t> offsets;
};

/// The pre-kernel-overhaul implementation: one full z-normalize + PAA per
/// window through the reference path, with the numerosity reduction applied
/// on the fly to the words as letters. The incremental kernel's contract is
/// identical output.
LetterRecords ReferenceDiscretize(std::span<const double> series,
                                  const SaxOptions& opts,
                                  NumerosityReduction numerosity) {
  const NormalAlphabet alphabet(opts.alphabet_size);
  const size_t windows = NumSlidingWindows(series.size(), opts.window);
  LetterRecords records;
  std::vector<uint64_t> code(SaxLaneCount(opts.paa_size));
  for (size_t pos = 0; pos < windows; ++pos) {
    SaxWordForWindow(WindowAt(series, pos, opts.window), opts, alphabet,
                     code.data());
    std::string word = SaxLetters(code, opts.paa_size);
    bool keep = true;
    if (!records.words.empty()) {
      const std::string& prev = records.words.back();
      switch (numerosity) {
        case NumerosityReduction::kNone:
          break;
        case NumerosityReduction::kExact:
          keep = (word != prev);
          break;
        case NumerosityReduction::kMinDist:
          keep = MinDist(word, prev, opts.window, alphabet) != 0.0;
          break;
      }
    }
    if (keep) {
      records.words.push_back(std::move(word));
      records.offsets.push_back(pos);
    }
  }
  return records;
}

/// Every word of `records` rendered as letters.
std::vector<std::string> Letters(const SaxRecords& records) {
  std::vector<std::string> out;
  for (size_t i = 0; i < records.size(); ++i) {
    out.push_back(records.words.Letters(i));
  }
  return out;
}

struct NamedSeries {
  std::string name;
  std::vector<double> values;
};

std::vector<NamedSeries> TestSeries() {
  std::vector<NamedSeries> all;
  all.push_back({"flat", std::vector<double>(400, 3.25)});

  std::vector<double> plateaus(400);
  for (size_t i = 0; i < plateaus.size(); ++i) {
    plateaus[i] = (i / 80) % 2 == 0 ? 1.0 : 4.5;  // flat windows + steps
  }
  all.push_back({"plateaus", plateaus});

  Rng rng(1234);
  std::vector<double> near_flat(400);
  for (double& v : near_flat) {
    v = -2.0 + 0.001 * rng.Gaussian();  // sub-epsilon noise: centering only
  }
  all.push_back({"near_flat", near_flat});

  all.push_back({"sine", MakeSine(500, 37.0, 0.0, 7)});
  all.push_back({"noisy_sine", MakeSine(500, 23.0, 0.2, 11)});
  all.push_back({"random_walk", MakeRandomWalk(500, 1.0, 5)});

  // Large offset: the prefix sums grow to ~5e8, which is exactly the
  // regime where prefix-difference rounding is worst relative to the
  // window-local values; the kernel's guards must still keep the output
  // byte-identical (by falling back where needed).
  std::vector<double> offset = MakeSine(500, 29.0, 0.1, 13);
  for (double& v : offset) {
    v += 1e6;
  }
  all.push_back({"large_offset", offset});

  std::vector<double> spikes = MakeSine(500, 31.0, 0.05, 17);
  for (size_t i = 50; i < spikes.size(); i += 97) {
    spikes[i] += 40.0;  // rare large values, heavy per-window variance swings
  }
  all.push_back({"spiky", spikes});
  return all;
}

TEST(IncrementalSaxPropertyTest, ByteIdenticalToReferenceAcrossGrid) {
  const std::vector<NamedSeries> series_set = TestSeries();
  // (window, paa) pairs cover divisible, non-divisible, step == 1, and
  // paa == 1 geometry.
  const std::vector<std::pair<size_t, size_t>> shapes = {
      {30, 5}, {30, 4}, {7, 3}, {16, 16}, {25, 1}, {64, 8}, {41, 6}};
  const std::vector<size_t> alphabets = {2, 4, 5, 26};
  const std::vector<NumerosityReduction> modes = {
      NumerosityReduction::kNone, NumerosityReduction::kExact,
      NumerosityReduction::kMinDist};

  for (const NamedSeries& s : series_set) {
    for (const auto& [window, paa] : shapes) {
      for (size_t alpha : alphabets) {
        for (NumerosityReduction mode : modes) {
          SaxOptions opts;
          opts.window = window;
          opts.paa_size = paa;
          opts.alphabet_size = alpha;
          opts.numerosity = mode;
          auto fast = Discretize(s.values, opts);
          ASSERT_TRUE(fast.ok());
          LetterRecords ref = ReferenceDiscretize(s.values, opts, mode);
          EXPECT_EQ(Letters(*fast), ref.words)
              << s.name << " w=" << window << " paa=" << paa
              << " a=" << alpha << " mode=" << static_cast<int>(mode);
          EXPECT_EQ(fast->offsets, ref.offsets)
              << s.name << " w=" << window << " paa=" << paa
              << " a=" << alpha << " mode=" << static_cast<int>(mode);
        }
      }
    }
  }
}

TEST(IncrementalSaxPropertyTest, AllWindowsIsByteIdenticalToo) {
  const std::vector<NamedSeries> series_set = TestSeries();
  for (const NamedSeries& s : series_set) {
    SaxOptions opts;
    opts.window = 48;
    opts.paa_size = 6;
    opts.alphabet_size = 4;
    auto fast = DiscretizeAllWindows(s.values, opts);
    ASSERT_TRUE(fast.ok());
    LetterRecords ref =
        ReferenceDiscretize(s.values, opts, NumerosityReduction::kNone);
    EXPECT_EQ(Letters(*fast), ref.words) << s.name;
    EXPECT_EQ(fast->offsets, ref.offsets) << s.name;
  }
}

TEST(IncrementalSaxPropertyTest, CustomEpsilonStillByteIdentical) {
  // Epsilon sits inside the data's noise band, so the flat-vs-normalized
  // decision flips from window to window — the hardest case for the
  // kernel's flat-decision guard.
  Rng rng(7);
  std::vector<double> v(600);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = 5.0 + 0.05 * rng.Gaussian() +
           (i % 120 < 60 ? 0.0 : 0.2 * std::sin(0.4 * static_cast<double>(i)));
  }
  for (double eps : {0.0, 0.01, 0.09, 1.0}) {
    SaxOptions opts;
    opts.window = 36;
    opts.paa_size = 4;
    opts.alphabet_size = 5;
    opts.znorm_epsilon = eps;
    auto fast = Discretize(v, opts);
    ASSERT_TRUE(fast.ok());
    LetterRecords ref = ReferenceDiscretize(v, opts, opts.numerosity);
    EXPECT_EQ(Letters(*fast), ref.words) << "eps=" << eps;
    EXPECT_EQ(fast->offsets, ref.offsets) << "eps=" << eps;
  }
}

}  // namespace
}  // namespace gva
