// Property tests for packed SAX word codes (sax/sax_word.h): over random
// windows, alphabets 2-26 and word lengths 1-60 — which crosses the
// 12/13-letter lane boundary — a code must render to the reference word,
// order like its letters, make the same numerosity decisions as the
// letters, and come out the same from every discretization entry point.

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/simple.h"
#include "sax/mindist.h"
#include "sax/paa.h"
#include "sax/sax_transform.h"
#include "sax/sax_word.h"
#include "timeseries/sliding_window.h"
#include "timeseries/znorm.h"
#include "util/rng.h"

namespace gva {
namespace {

/// The reference word of one window as letters, computed without codes:
/// z-normalize, PAA, one letter per segment.
std::string ReferenceLetters(std::span<const double> window,
                             const SaxOptions& opts) {
  const NormalAlphabet alphabet(opts.alphabet_size);
  std::vector<double> normalized;
  std::vector<double> paa;
  ZNormalize(window, normalized, opts.znorm_epsilon);
  Paa(normalized, opts.paa_size, paa);
  std::string word;
  for (const double v : paa) {
    word.push_back(alphabet.LetterOf(v));
  }
  return word;
}

std::string RandomWord(Rng& rng, size_t paa, size_t alphabet) {
  std::string word;
  for (size_t j = 0; j < paa; ++j) {
    word.push_back(static_cast<char>('a' + rng.UniformInt(alphabet)));
  }
  return word;
}

/// `word` with each letter moved by -1, 0 or +1 within the alphabet, so
/// about half the pairs have a zero MINDIST.
std::string Nudged(Rng& rng, const std::string& word, size_t alphabet) {
  std::string out = word;
  for (char& c : out) {
    const int moved = (c - 'a') + static_cast<int>(rng.UniformInt(3)) - 1;
    c = static_cast<char>(
        'a' + std::clamp(moved, 0, static_cast<int>(alphabet) - 1));
  }
  return out;
}

TEST(SaxCodePropertyTest, RenderedCodeEqualsTheReferenceWord) {
  Rng rng(101);
  for (int trial = 0; trial < 600; ++trial) {
    SaxOptions opts;
    opts.paa_size = 1 + rng.UniformInt(60);
    opts.window = opts.paa_size + rng.UniformInt(120);
    opts.window = std::max<size_t>(opts.window, 2);
    opts.alphabet_size = 2 + rng.UniformInt(25);
    std::vector<double> window(opts.window);
    double level = 0.0;
    for (double& v : window) {
      level += rng.Gaussian();
      v = level;
    }
    const NormalAlphabet alphabet(opts.alphabet_size);
    std::vector<uint64_t> code(SaxLaneCount(opts.paa_size));
    SaxWordForWindow(window, opts, alphabet, code.data());
    const std::string want = ReferenceLetters(window, opts);
    ASSERT_EQ(SaxLetters(code, opts.paa_size), want)
        << "w=" << opts.window << " paa=" << opts.paa_size
        << " a=" << opts.alphabet_size;
    EXPECT_EQ(PackSaxLetters(want), code);
    for (size_t j = 0; j < opts.paa_size; ++j) {
      EXPECT_EQ(SaxLetterAt(code, opts.paa_size, j),
                static_cast<size_t>(want[j] - 'a'));
    }
  }
}

TEST(SaxCodePropertyTest, CodeOrderEqualsLetterOrder) {
  Rng rng(202);
  for (int trial = 0; trial < 4000; ++trial) {
    const size_t paa = 1 + rng.UniformInt(60);
    const size_t alphabet = 2 + rng.UniformInt(25);
    const std::string a = RandomWord(rng, paa, alphabet);
    // Every third pair shares a prefix, so ties run deep into the word.
    std::string b = RandomWord(rng, paa, alphabet);
    if (trial % 3 == 0) {
      const size_t keep = rng.UniformInt(paa + 1);
      b = a.substr(0, keep) + b.substr(keep);
    }
    const std::vector<uint64_t> ca = PackSaxLetters(a);
    const std::vector<uint64_t> cb = PackSaxLetters(b);
    ASSERT_EQ(ca.size(), SaxLaneCount(paa));
    EXPECT_EQ(ca < cb, a < b) << a << " vs " << b;
    EXPECT_EQ(ca == cb, a == b) << a << " vs " << b;
    EXPECT_EQ(SameSaxWord(ca, cb), a == b) << a << " vs " << b;
  }
}

TEST(SaxCodePropertyTest, KeepDecisionsEqualTheLetterDecisions) {
  Rng rng(303);
  for (int trial = 0; trial < 4000; ++trial) {
    const size_t paa = 1 + rng.UniformInt(60);
    const size_t size = 2 + rng.UniformInt(25);
    const NormalAlphabet alphabet(size);
    const std::string prev = RandomWord(rng, paa, size);
    const std::string word =
        trial % 4 == 0 ? prev : Nudged(rng, prev, size);
    const std::vector<uint64_t> prev_code = PackSaxLetters(prev);
    const std::vector<uint64_t> code = PackSaxLetters(word);
    EXPECT_EQ(KeepSaxWord(prev_code, code, paa, NumerosityReduction::kExact,
                          alphabet),
              word != prev)
        << prev << " -> " << word;
    EXPECT_EQ(KeepSaxWord(prev_code, code, paa,
                          NumerosityReduction::kMinDist, alphabet),
              MinDist(word, prev, 10 * paa, alphabet) != 0.0)
        << prev << " -> " << word << " a=" << size;
    EXPECT_TRUE(KeepSaxWord(prev_code, code, paa, NumerosityReduction::kNone,
                            alphabet));
    EXPECT_TRUE(KeepSaxWord({}, code, paa, NumerosityReduction::kExact,
                            alphabet));
  }
}

struct Case {
  std::string name;
  std::vector<double> series;
};

std::vector<Case> Series() {
  Rng rng(404);
  std::vector<double> plateaus(900);
  for (size_t i = 0; i < plateaus.size(); ++i) {
    plateaus[i] = (i / 150) % 2 == 0 ? 2.0 : 2.0 + 1e-3 * rng.Gaussian();
  }
  return {{"noisy_sine", MakeSine(900, 41.0, 0.3, 5)},
          {"random_walk", MakeRandomWalk(900, 1.0, 6)},
          {"plateaus", plateaus}};
}

TEST(SaxCodePropertyTest, GroupEqualsOneAlphabetCalls) {
  const std::vector<size_t> alphabets = {3, 4, 5, 6};
  // (window, paa) pairs with one, two and five lanes per word.
  const std::vector<std::pair<size_t, size_t>> shapes = {
      {60, 4}, {97, 12}, {97, 13}, {120, 24}, {120, 25}, {180, 60}};
  for (const Case& c : Series()) {
    for (const auto& [window, paa] : shapes) {
      for (const NumerosityReduction mode :
           {NumerosityReduction::kNone, NumerosityReduction::kExact,
            NumerosityReduction::kMinDist}) {
        SaxOptions base;
        base.window = window;
        base.paa_size = paa;
        base.numerosity = mode;
        auto group = DiscretizeGroup(c.series, base, alphabets);
        ASSERT_TRUE(group.ok()) << group.status();
        ASSERT_EQ(group->size(), alphabets.size());
        for (size_t i = 0; i < alphabets.size(); ++i) {
          SaxOptions one = base;
          one.alphabet_size = alphabets[i];
          auto single = Discretize(c.series, one);
          ASSERT_TRUE(single.ok()) << single.status();
          EXPECT_EQ((*group)[i].words, single->words)
              << c.name << " w=" << window << " paa=" << paa
              << " a=" << alphabets[i] << " mode=" << static_cast<int>(mode);
          EXPECT_EQ((*group)[i].offsets, single->offsets)
              << c.name << " w=" << window << " paa=" << paa
              << " a=" << alphabets[i] << " mode=" << static_cast<int>(mode);
        }
      }
    }
  }
}

TEST(SaxCodePropertyTest, OnlineCodesEqualBatchCodes) {
  for (const Case& c : Series()) {
    for (const auto& [window, paa, size] :
         std::vector<std::tuple<size_t, size_t, size_t>>{
             {50, 5, 4}, {96, 12, 7}, {96, 13, 26}, {150, 60, 3}}) {
      SaxOptions opts;
      opts.window = window;
      opts.paa_size = paa;
      opts.alphabet_size = size;
      auto batch = DiscretizeAllWindows(c.series, opts);
      ASSERT_TRUE(batch.ok()) << batch.status();
      OnlineSaxDiscretizer online(opts);
      std::vector<uint64_t> code(SaxLaneCount(paa));
      size_t emitted = 0;
      for (const double v : c.series) {
        size_t pos = 0;
        if (!online.Push(v, code.data(), &pos)) {
          continue;
        }
        ASSERT_EQ(pos, emitted);
        EXPECT_TRUE(SameSaxWord(code, batch->words[pos]))
            << c.name << " w=" << window << " paa=" << paa << " pos=" << pos
            << ": " << SaxLetters(code, paa) << " vs "
            << batch->words.Letters(pos);
        ++emitted;
      }
      EXPECT_EQ(emitted, batch->size());
    }
  }
}

TEST(SaxCodePropertyTest, InternerNumbersWordsInFirstAppearanceOrder) {
  Rng rng(505);
  for (const size_t paa : {3u, 12u, 13u, 40u}) {
    SaxWordInterner interner(paa);
    std::vector<std::string> seen;
    for (int i = 0; i < 500; ++i) {
      const std::string word = RandomWord(rng, paa, 2);
      const auto it = std::find(seen.begin(), seen.end(), word);
      const auto want = static_cast<int32_t>(it - seen.begin());
      const bool fresh = it == seen.end();
      if (fresh) {
        seen.push_back(word);
      }
      bool inserted = false;
      EXPECT_EQ(interner.Intern(PackSaxLetters(word), &inserted), want);
      EXPECT_EQ(inserted, fresh);
    }
    ASSERT_EQ(interner.words().size(), seen.size());
    for (size_t t = 0; t < seen.size(); ++t) {
      EXPECT_EQ(interner.words().Letters(t), seen[t]);
    }
  }
}

}  // namespace
}  // namespace gva
