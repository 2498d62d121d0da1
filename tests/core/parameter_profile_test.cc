#include "core/parameter_profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/evaluate.h"
#include "core/rule_density_detector.h"
#include "datasets/ecg.h"
#include "datasets/power_demand.h"
#include "datasets/simple.h"
#include "grammar/sequitur.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "sax/alphabet.h"
#include "timeseries/sliding_window.h"
#include "timeseries/znorm.h"
#include "util/math_utils.h"

namespace gva {
namespace {

SaxOptions Opts(size_t window, size_t paa, size_t alpha) {
  SaxOptions o;
  o.window = window;
  o.paa_size = paa;
  o.alphabet_size = alpha;
  return o;
}

TEST(ProfileTest, BasicFieldsPopulated) {
  std::vector<double> series = MakeSine(1000, 50.0, 0.05, 1);
  auto profile = ProfileParameters(series, Opts(100, 5, 4));
  ASSERT_TRUE(profile.ok());
  EXPECT_GT(profile->tokens, 0u);
  EXPECT_GE(profile->rules, 1u);
  EXPECT_GT(profile->approximation_error, 0.0);
  EXPECT_GE(profile->compression, 0.0);
  EXPECT_LE(profile->compression, 1.0);
}

TEST(ProfileTest, FinerDiscretizationApproximatesBetter) {
  std::vector<double> series = MakeSine(1500, 60.0, 0.02, 2);
  auto coarse = ProfileParameters(series, Opts(120, 3, 3));
  auto fine = ProfileParameters(series, Opts(120, 12, 10));
  ASSERT_TRUE(coarse.ok());
  ASSERT_TRUE(fine.ok());
  EXPECT_LT(fine->approximation_error, coarse->approximation_error);
}

TEST(ProfileTest, PeriodicSeriesCompressesBetterThanNoise) {
  std::vector<double> periodic = MakeSine(2000, 80.0, 0.02, 3);
  std::vector<double> noise = MakeNoise(2000, 1.0, 3);
  auto p = ProfileParameters(periodic, Opts(80, 4, 4));
  auto n = ProfileParameters(noise, Opts(80, 4, 4));
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(n.ok());
  EXPECT_GT(p->compression, n->compression);
}

TEST(ProfileTest, InvalidOptionsRejected) {
  std::vector<double> series(100, 0.0);
  EXPECT_FALSE(ProfileParameters(series, Opts(0, 4, 4)).ok());
  EXPECT_FALSE(ProfileParameters(series, Opts(200, 4, 4)).ok());
}

TEST(SweepTest, SkipsInvalidCombinations) {
  std::vector<double> series = MakeSine(400, 40.0, 0.05, 4);
  ParameterGrid grid;
  grid.windows = {50, 100, 1000};  // 1000 doesn't fit
  grid.paa_sizes = {4, 60};        // 60 > 50
  grid.alphabet_sizes = {4};
  auto profiles = SweepParameterGrid(series, grid);
  ASSERT_TRUE(profiles.ok());
  // 50x4, 100x4, 100x60 -> invalid paa>window pruned: expect 3 valid:
  // (50,4), (100,4), (100,60).
  EXPECT_EQ(profiles->size(), 3u);
}

TEST(SweepTest, FailsWhenNothingFits) {
  std::vector<double> series(20, 0.0);
  ParameterGrid grid;
  grid.windows = {500};
  EXPECT_FALSE(SweepParameterGrid(series, grid).ok());
}

// The per-config profile as it was computed before the sweep shared its
// substrate: a fresh Discretize and Sequitur run per config, and every kept
// window re-z-normalized for the reconstruction error. Kept verbatim as the
// oracle the shared-substrate sweep must match bit for bit.
StatusOr<GrammarProfile> OracleProfile(std::span<const double> series,
                                       const SaxOptions& options) {
  GVA_ASSIGN_OR_RETURN(SaxRecords records, Discretize(series, options));
  GVA_ASSIGN_OR_RETURN(WordGrammar grammar,
                       InferGrammarFromWords(records.words));
  GrammarProfile profile;
  profile.sax = options;
  profile.tokens = records.size();
  profile.rules = grammar.grammar.size();
  for (const GrammarRule& rule : grammar.grammar.rules()) {
    profile.grammar_size += rule.rhs.size();
  }
  const NormalAlphabet alphabet(options.alphabet_size);
  std::vector<double> levels(alphabet.size());
  for (size_t i = 0; i < alphabet.size(); ++i) {
    levels[i] = InverseNormalCdf((static_cast<double>(i) + 0.5) /
                                 static_cast<double>(alphabet.size()));
  }
  std::vector<double> normalized;
  double total_error = 0.0;
  size_t total_points = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    ZNormalize(WindowAt(series, records.offsets[i], options.window),
               normalized, options.znorm_epsilon);
    const std::string word = records.words.Letters(i);
    for (size_t p = 0; p < options.window; ++p) {
      const size_t segment = std::min(options.paa_size - 1,
                                      p * options.paa_size / options.window);
      const double level =
          levels[NormalAlphabet::IndexOfLetter(word[segment])];
      total_error += std::abs(normalized[p] - level);
    }
    total_points += options.window;
  }
  profile.approximation_error =
      total_points > 0 ? total_error / static_cast<double>(total_points)
                       : 0.0;
  profile.compression =
      profile.tokens > 0
          ? 1.0 - static_cast<double>(profile.grammar_size) /
                      static_cast<double>(profile.tokens)
          : 0.0;
  if (profile.compression < 0.0) {
    profile.compression = 0.0;
  }
  if (profile.tokens >= 10 && profile.rules >= 2) {
    profile.score = profile.compression / (1.0 + profile.approximation_error);
  }
  return profile;
}

StatusOr<std::vector<GrammarProfile>> OracleSweep(
    std::span<const double> series, const ParameterGrid& grid) {
  std::vector<GrammarProfile> profiles;
  for (size_t w : grid.windows) {
    if (series.size() < 2 * w) {
      continue;
    }
    for (size_t p : grid.paa_sizes) {
      if (p > w) {
        continue;
      }
      for (size_t a : grid.alphabet_sizes) {
        GVA_ASSIGN_OR_RETURN(GrammarProfile profile,
                             OracleProfile(series, Opts(w, p, a)));
        profiles.push_back(profile);
      }
    }
  }
  if (profiles.empty()) {
    return Status::InvalidArgument(
        "no grid combination fits the series length");
  }
  return profiles;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectBitIdentical(const GrammarProfile& got, const GrammarProfile& want,
                        const std::string& where) {
  const std::string config = where + " w=" + std::to_string(want.sax.window) +
                             " paa=" + std::to_string(want.sax.paa_size) +
                             " a=" + std::to_string(want.sax.alphabet_size);
  EXPECT_EQ(got.sax.window, want.sax.window) << config;
  EXPECT_EQ(got.sax.paa_size, want.sax.paa_size) << config;
  EXPECT_EQ(got.sax.alphabet_size, want.sax.alphabet_size) << config;
  EXPECT_EQ(got.sax.numerosity, want.sax.numerosity) << config;
  EXPECT_TRUE(SameBits(got.sax.znorm_epsilon, want.sax.znorm_epsilon))
      << config;
  EXPECT_TRUE(SameBits(got.approximation_error, want.approximation_error))
      << config << ": " << got.approximation_error << " vs "
      << want.approximation_error;
  EXPECT_EQ(got.rules, want.rules) << config;
  EXPECT_EQ(got.grammar_size, want.grammar_size) << config;
  EXPECT_EQ(got.tokens, want.tokens) << config;
  EXPECT_TRUE(SameBits(got.compression, want.compression)) << config;
  EXPECT_TRUE(SameBits(got.score, want.score)) << config;
}

struct NamedSeries {
  std::string name;
  std::vector<double> values;
};

std::vector<NamedSeries> OracleSeries() {
  EcgOptions ecg;
  ecg.num_beats = 20;
  ecg.anomalous_beats = {12};
  PowerDemandOptions power;
  power.weeks = 3;
  power.holiday_days = {9};
  std::vector<double> stretch = MakeSine(2400, 90.0, 0.05, 8);
  std::fill(stretch.begin() + 900, stretch.begin() + 1500, 0.25);
  return {
      {"ecg", MakeEcg(ecg).series.values()},
      {"power", MakePowerDemand(power).series.values()},
      {"sine_anomaly",
       MakeSineWithAnomaly(2400, 100.0, 0.02, 1200, 120, 5).series.values()},
      {"flat", std::vector<double>(1500, 3.0)},
      {"flat_stretch", stretch},
  };
}

TEST(SweepTest, MatchesPreChangeProfilesBitForBit) {
  ParameterGrid duplicate_windows;
  duplicate_windows.windows = {60, 120, 60};
  duplicate_windows.paa_sizes = {4, 6};
  duplicate_windows.alphabet_sizes = {3, 5};
  ParameterGrid paa_equals_window;
  paa_equals_window.windows = {8, 40};
  paa_equals_window.paa_sizes = {8, 3};
  paa_equals_window.alphabet_sizes = {4, 7};
  ParameterGrid paa_not_dividing;
  paa_not_dividing.windows = {50, 97};
  paa_not_dividing.paa_sizes = {3, 7};
  paa_not_dividing.alphabet_sizes = {3, 4, 6};
  const std::vector<std::pair<std::string, ParameterGrid>> grids = {
      {"default", ParameterGrid{}},
      {"duplicate_windows", duplicate_windows},
      {"paa_equals_window", paa_equals_window},
      {"paa_not_dividing", paa_not_dividing},
  };
  for (const NamedSeries& series : OracleSeries()) {
    for (const auto& [grid_name, grid] : grids) {
      const std::string where = series.name + "/" + grid_name;
      auto want = OracleSweep(series.values, grid);
      ASSERT_TRUE(want.ok()) << where << ": " << want.status();
      StatusOr<GrammarProfile> want_best = BestProfile(*want);
      for (size_t threads : {1u, 2u, 4u}) {
        const std::string run = where + " threads=" + std::to_string(threads);
        auto got = SweepParameterGrid(series.values, grid, threads);
        ASSERT_TRUE(got.ok()) << run << ": " << got.status();
        ASSERT_EQ(got->size(), want->size()) << run;
        for (size_t i = 0; i < want->size(); ++i) {
          ExpectBitIdentical((*got)[i], (*want)[i], run);
        }
        auto suggested = SuggestParameters(series.values, grid, threads);
        ASSERT_EQ(suggested.ok(), want_best.ok()) << run;
        if (want_best.ok()) {
          EXPECT_EQ(suggested->window, want_best->sax.window) << run;
          EXPECT_EQ(suggested->paa_size, want_best->sax.paa_size) << run;
          EXPECT_EQ(suggested->alphabet_size, want_best->sax.alphabet_size)
              << run;
        } else {
          EXPECT_EQ(suggested.status().ToString(),
                    want_best.status().ToString())
              << run;
        }
      }
    }
  }
}

TEST(SweepTest, SingleProfileMatchesPreChangeProfile) {
  const std::vector<double> series = MakeSine(1500, 60.0, 0.02, 2);
  SaxOptions options = Opts(120, 7, 5);
  options.numerosity = NumerosityReduction::kMinDist;
  options.znorm_epsilon = 0.5;
  auto got = ProfileParameters(series, options);
  auto want = OracleProfile(series, options);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(want.ok()) << want.status();
  ExpectBitIdentical(*got, *want, "sine kMinDist eps=0.5");
}

TEST(SweepTest, WordCodesAndInternedWordsGiveTheOracleProfiles) {
  // The sweep feeds Sequitur each word's base-alphabet value when
  // alphabet^paa < 2^31 (4^12) and interned ids otherwise (20^12); both
  // must reproduce the old string-vocabulary profiles.
  const std::vector<double> series =
      MakeSineWithAnomaly(3000, 90.0, 0.05, 1500, 100, 3).series.values();
  ParameterGrid grid;
  grid.windows = {60, 96};
  grid.paa_sizes = {12};
  grid.alphabet_sizes = {4, 20};
  auto want = OracleSweep(series, grid);
  auto got = SweepParameterGrid(series, grid, 2);
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->size(), want->size());
  for (size_t i = 0; i < want->size(); ++i) {
    ExpectBitIdentical((*got)[i], (*want)[i], "wide words");
    EXPECT_GE((*got)[i].rules, 2u) << "grammar must have rules to compare";
  }
}

TEST(SweepTest, InvalidAlphabetFailsWithThePreChangeMessage) {
  const std::vector<double> series = MakeSine(1000, 50.0, 0.05, 1);
  ParameterGrid grid;
  grid.windows = {50, 100};
  grid.paa_sizes = {4};
  grid.alphabet_sizes = {4, 30};
  auto want = OracleSweep(series, grid);
  ASSERT_FALSE(want.ok());
  for (size_t threads : {1u, 4u}) {
    auto got = SweepParameterGrid(series, grid, threads);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    auto suggested = SuggestParameters(series, grid, threads);
    ASSERT_FALSE(suggested.ok());
    EXPECT_EQ(suggested.status().ToString(), want.status().ToString());
  }
}

TEST(SweepTest, BestProfileIsFirstBestInOrder) {
  std::vector<GrammarProfile> profiles(4);
  for (size_t i = 0; i < profiles.size(); ++i) {
    profiles[i].sax.window = 10 * (i + 1);
  }
  profiles[1].score = 0.5;
  profiles[2].score = 0.5;
  auto best = BestProfile(profiles);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->sax.window, 20u);
  profiles[1].score = 0.0;
  profiles[2].score = 0.0;
  EXPECT_EQ(BestProfile(profiles).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(BestProfile({}).status().code(), StatusCode::kNotFound);
}

/// The value of `"<key>": ` in the capture event named `name`.
uint64_t FieldOf(const std::string& json, const std::string& name,
                 const std::string& key) {
  const size_t at = json.find("\"name\": \"" + name + "\"");
  const size_t field = json.find("\"" + key + "\": ", at);
  return std::strtoull(json.c_str() + field + key.size() + 4, nullptr, 10);
}

size_t CountOf(const std::string& json, const std::string& name) {
  const std::string needle = "\"name\": \"" + name + "\"";
  size_t count = 0;
  for (size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(SweepTest, SpansCoverTheSweep) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "spans compile to nothing with GVA_OBS=OFF";
  }
  EcgOptions ecg;
  ecg.num_beats = 34;
  ecg.anomalous_beats = {20};
  const std::vector<double> series = MakeEcg(ecg).series.values();
  ASSERT_GE(series.size(), 4000u);
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.StartCapture();
  const auto start = std::chrono::steady_clock::now();
  auto profiles = SweepParameterGrid(series, {}, 2);
  const auto wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  recorder.StopCapture();
  ASSERT_TRUE(profiles.ok()) << profiles.status();
  ASSERT_EQ(profiles->size(), 100u);
  const std::string json = recorder.CaptureJson();
  EXPECT_EQ(CountOf(json, "params.sweep"), 1u);
  EXPECT_EQ(CountOf(json, "params.group"), 25u);
  EXPECT_EQ(CountOf(json, "params.error"), 100u);
  const uint64_t sweep_us = FieldOf(json, "params.sweep", "dur");
  EXPECT_GE(static_cast<double>(sweep_us), 0.95 * static_cast<double>(wall_us))
      << "params.sweep " << sweep_us << " us of " << wall_us << " us";
}

TEST(SuggestTest, SuggestionIsValidAndUsable) {
  LabeledSeries data = MakeSineWithAnomaly(2000, 100.0, 0.02, 1000, 120, 5);
  auto suggested = SuggestParameters(data.series);
  ASSERT_TRUE(suggested.ok()) << suggested.status();
  EXPECT_TRUE(suggested->Validate().ok());

  // The suggested parameters must let the density detector find the
  // planted anomaly.
  auto detection = DetectDensityAnomalies(data.series, *suggested, {});
  ASSERT_TRUE(detection.ok());
  ASSERT_FALSE(detection->anomalies.empty());
  EXPECT_TRUE(HitsAnyTruth(detection->anomalies[0].span, data.anomalies,
                           suggested->window));
}

TEST(SuggestTest, WorksOnEcg) {
  EcgOptions ecg;
  ecg.num_beats = 40;
  LabeledSeries data = MakeEcg(ecg);
  auto suggested = SuggestParameters(data.series);
  ASSERT_TRUE(suggested.ok());
  // The ECG's dominant cycle is ~120 samples; a usable suggestion is within
  // a small multiple of it.
  EXPECT_GE(suggested->window, 40u);
  EXPECT_LE(suggested->window, 400u);
}

}  // namespace
}  // namespace gva
