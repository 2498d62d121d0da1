#include "core/parameter_profile.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "grammar/sequitur.h"
#include "obs/trace.h"
#include "sax/alphabet.h"
#include "sax/sax_word.h"
#include "timeseries/rolling_stats.h"
#include "timeseries/sliding_window.h"
#include "timeseries/stats.h"
#include "util/math_utils.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace gva {

namespace {

/// Decoded level of each letter: the median of its equiprobable region.
std::vector<double> LetterLevels(const NormalAlphabet& alphabet) {
  std::vector<double> levels(alphabet.size());
  const double a = static_cast<double>(alphabet.size());
  for (size_t i = 0; i < alphabet.size(); ++i) {
    levels[i] = InverseNormalCdf((static_cast<double>(i) + 0.5) / a);
  }
  return levels;
}

/// The mean and standard deviation of the window at every position, taken
/// with the same MeanAndStdDev call ZNormalize makes, so a value normalized
/// from them — (x - mean) * (1.0 / sd), or x - mean for a flat window —
/// has exactly ZNormalize's bits. Shared by every (paa, alphabet) config of
/// one window length.
struct WindowMoments {
  std::vector<double> mean;
  std::vector<double> sd;
};

WindowMoments ComputeWindowMoments(std::span<const double> series,
                                   size_t window, size_t num_threads) {
  GVA_OBS_SPAN("params.moments");
  WindowMoments moments;
  const size_t positions = NumSlidingWindows(series.size(), window);
  moments.mean.resize(positions);
  moments.sd.resize(positions);
  ThreadPool::ParallelFor(
      num_threads, 0, positions, [&](size_t begin, size_t end, size_t) {
        for (size_t pos = begin; pos < end; ++pos) {
          const MeanStdDev m = MeanAndStdDev(WindowAt(series, pos, window));
          moments.mean[pos] = m.mean;
          moments.sd[pos] = m.sd;
        }
      });
  return moments;
}

/// Mean per-point reconstruction error of the kept windows (see
/// GrammarProfile::approximation_error), summed in window order, point by
/// point, as the per-window ZNormalize formulation did.
double ReconstructionError(std::span<const double> series,
                           const SaxRecords& records,
                           const SaxOptions& options,
                           const WindowMoments& moments) {
  GVA_OBS_SPAN("params.error");
  const size_t w = options.window;
  const std::vector<double> levels =
      LetterLevels(NormalAlphabet(options.alphabet_size));
  // Expanding a word back to window length: point p lies in segment
  // p * paa / w, the real interval [j*w/paa, (j+1)*w/paa) of segment j.
  std::vector<size_t> segment_of(w);
  for (size_t p = 0; p < w; ++p) {
    segment_of[p] = std::min(options.paa_size - 1, p * options.paa_size / w);
  }
  std::vector<double> word_levels(options.paa_size);
  double total_error = 0.0;
  for (size_t i = 0; i < records.size(); ++i) {
    const size_t pos = records.offsets[i];
    double* level = word_levels.data();
    ForEachSaxLetter(records.words[i], options.paa_size,
                     [&](size_t letter) { *level++ = levels[letter]; });
    const double* x = series.data() + pos;
    const double mean = moments.mean[pos];
    const double sd = moments.sd[pos];
    if (sd < options.znorm_epsilon) {
      for (size_t p = 0; p < w; ++p) {
        total_error += std::abs((x[p] - mean) - word_levels[segment_of[p]]);
      }
    } else {
      const double inv_sd = 1.0 / sd;
      for (size_t p = 0; p < w; ++p) {
        total_error +=
            std::abs((x[p] - mean) * inv_sd - word_levels[segment_of[p]]);
      }
    }
  }
  const size_t total_points = records.size() * w;
  return total_points > 0 ? total_error / static_cast<double>(total_points)
                          : 0.0;
}

GrammarProfile ProfileOf(const SaxOptions& options, const SaxRecords& records,
                         const GrammarShape& shape,
                         double approximation_error) {
  GrammarProfile profile;
  profile.sax = options;
  profile.tokens = records.size();
  profile.rules = shape.rules;
  profile.grammar_size = shape.symbols;
  profile.approximation_error = approximation_error;
  profile.compression =
      profile.tokens > 0
          ? 1.0 - static_cast<double>(profile.grammar_size) /
                      static_cast<double>(profile.tokens)
          : 0.0;
  if (profile.compression < 0.0) {
    profile.compression = 0.0;
  }
  // Degenerate combinations cannot support anomaly discovery: nearly no
  // tokens (everything collapsed) or no rules (nothing repeated).
  if (profile.tokens >= 10 && profile.rules >= 2) {
    profile.score = profile.compression / (1.0 + profile.approximation_error);
  }
  return profile;
}

/// The word's value as a base-`base` number, first letter most
/// significant: a dense injective id when base^paa < 2^31.
uint32_t BaseAlphabetValue(std::span<const uint64_t> code, size_t paa,
                           uint32_t base) {
  uint32_t value = 0;
  ForEachSaxLetter(code, paa, [&value, base](size_t letter) {
    value = value * base + static_cast<uint32_t>(letter);
  });
  return value;
}

/// Induces the grammar of `records` and returns its shape. Sequitur only
/// compares terminals for equality, so any injective word id yields the
/// same rules: the word's base-alphabet value when alphabet^paa < 2^31,
/// first-occurrence interning on the code otherwise.
GrammarShape InduceShape(const SaxRecords& records,
                         const SaxOptions& options) {
  GVA_OBS_SPAN("grammar.sequitur.induce");
  constexpr uint64_t kCodeLimit = uint64_t{1} << 31;
  uint64_t words = 1;  // alphabet^paa, saturated at kCodeLimit
  for (size_t j = 0; j < options.paa_size && words < kCodeLimit; ++j) {
    words *= options.alphabet_size;
  }
  IncrementalSequitur sequitur;
  if (words < kCodeLimit) {
    const auto base = static_cast<uint32_t>(options.alphabet_size);
    for (size_t i = 0; i < records.size(); ++i) {
      const uint32_t id =
          BaseAlphabetValue(records.words[i], options.paa_size, base);
      GVA_CHECK(sequitur.Append(static_cast<int32_t>(id)).ok());
    }
  } else {
    SaxWordInterner vocabulary(options.paa_size);
    for (size_t i = 0; i < records.size(); ++i) {
      GVA_CHECK(sequitur.Append(vocabulary.Intern(records.words[i])).ok());
    }
  }
  return sequitur.Shape();
}

/// Profiles one (window, paa) group: one discretization pass computes each
/// window's z-row once and codes it under every alphabet of the group, then
/// one profile per alphabet is written to out[0..alphabets). `base` must be
/// valid (any alphabet) and the series at least one window long.
Status ProfileGroup(std::span<const double> series, const RollingStats& stats,
                    const WindowMoments& moments, const SaxOptions& base,
                    std::span<const size_t> alphabets, GrammarProfile* out) {
  GVA_OBS_SPAN("params.group");
  GVA_ASSIGN_OR_RETURN(std::vector<SaxRecords> records,
                       DiscretizeGroup(series, base, alphabets, &stats));
  for (size_t i = 0; i < alphabets.size(); ++i) {
    SaxOptions options = base;
    options.alphabet_size = alphabets[i];
    out[i] = ProfileOf(options, records[i], InduceShape(records[i], options),
                       ReconstructionError(series, records[i], options,
                                           moments));
  }
  return Status::Ok();
}

}  // namespace

StatusOr<GrammarProfile> ProfileParameters(std::span<const double> series,
                                           const SaxOptions& options) {
  GVA_RETURN_IF_ERROR(options.Validate());
  if (series.size() < options.window) {
    return Status::InvalidArgument(
        StrFormat("series length %zu shorter than window %zu", series.size(),
                  options.window));
  }
  const RollingStats stats(series);
  const WindowMoments moments =
      ComputeWindowMoments(series, options.window, 1);
  GrammarProfile profile;
  GVA_RETURN_IF_ERROR(ProfileGroup(series, stats, moments, options,
                                   {&options.alphabet_size, 1}, &profile));
  return profile;
}

StatusOr<std::vector<GrammarProfile>> SweepParameterGrid(
    std::span<const double> series, const ParameterGrid& grid,
    size_t num_threads) {
  GVA_OBS_SPAN("params.sweep");
  // The (window, paa) groups in grid order; group g owns the profile slots
  // [g * alphabets, (g + 1) * alphabets). Every config is validated here,
  // in grid order, so the first invalid one is the error reported.
  struct Group {
    SaxOptions base;
    size_t moments;  // index into `moments` below
  };
  std::vector<Group> groups;
  std::vector<size_t> windows;  // distinct windows, first-appearance order
  for (size_t w : grid.windows) {
    if (series.size() < 2 * w) {
      continue;
    }
    for (size_t p : grid.paa_sizes) {
      if (p > w) {
        continue;
      }
      SaxOptions options;
      options.window = w;
      options.paa_size = p;
      for (size_t a : grid.alphabet_sizes) {
        options.alphabet_size = a;
        GVA_RETURN_IF_ERROR(options.Validate());
      }
      if (grid.alphabet_sizes.empty()) {
        continue;
      }
      options.alphabet_size = grid.alphabet_sizes.front();
      const size_t m =
          static_cast<size_t>(std::find(windows.begin(), windows.end(), w) -
                              windows.begin());
      if (m == windows.size()) {
        windows.push_back(w);
      }
      groups.push_back({options, m});
    }
  }
  if (groups.empty()) {
    return Status::InvalidArgument(
        "no grid combination fits the series length");
  }

  const RollingStats stats(series);
  std::vector<WindowMoments> moments;
  moments.reserve(windows.size());
  for (size_t w : windows) {
    moments.push_back(ComputeWindowMoments(series, w, num_threads));
  }

  // One task per lane pulls groups off a shared counter, largest window
  // first (grid order reversed: the default grid lists windows ascending),
  // so a lane that drew cheap groups takes more of them. Each profile
  // lands in its canonical slot, so the result does not depend on which
  // lane ran which group.
  const size_t alphabets = grid.alphabet_sizes.size();
  std::vector<GrammarProfile> profiles(groups.size() * alphabets);
  std::vector<Status> errors(groups.size());
  std::atomic<size_t> next{0};
  const size_t lanes =
      std::min(ThreadPool::ResolveThreadCount(num_threads), groups.size());
  ThreadPool::ParallelFor(lanes, 0, lanes, [&](size_t, size_t, size_t) {
    for (size_t k = next.fetch_add(1, std::memory_order_relaxed);
         k < groups.size();
         k = next.fetch_add(1, std::memory_order_relaxed)) {
      const size_t g = groups.size() - 1 - k;
      errors[g] = ProfileGroup(series, stats, moments[groups[g].moments],
                               groups[g].base, grid.alphabet_sizes,
                               &profiles[g * alphabets]);
    }
  });
  for (const Status& error : errors) {
    GVA_RETURN_IF_ERROR(error);
  }
  return profiles;
}

StatusOr<GrammarProfile> BestProfile(
    const std::vector<GrammarProfile>& profiles) {
  const GrammarProfile* best = nullptr;
  for (const GrammarProfile& p : profiles) {
    if (best == nullptr || p.score > best->score) {
      best = &p;
    }
  }
  if (best == nullptr || best->score <= 0.0) {
    return Status::NotFound(
        "no parameter combination produced a usable grammar");
  }
  return *best;
}

StatusOr<SaxOptions> SuggestParameters(std::span<const double> series,
                                       const ParameterGrid& grid,
                                       size_t num_threads) {
  GVA_ASSIGN_OR_RETURN(std::vector<GrammarProfile> profiles,
                       SweepParameterGrid(series, grid, num_threads));
  GVA_ASSIGN_OR_RETURN(GrammarProfile best, BestProfile(profiles));
  return best.sax;
}

}  // namespace gva
