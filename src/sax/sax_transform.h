#ifndef GVA_SAX_SAX_TRANSFORM_H_
#define GVA_SAX_SAX_TRANSFORM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "sax/alphabet.h"
#include "sax/mindist.h"
#include "sax/sax_word.h"
#include "timeseries/rolling_stats.h"
#include "timeseries/znorm.h"
#include "util/status.h"
#include "util/statusor.h"

namespace gva {

/// How consecutive identical SAX words are collapsed (paper Section 3.2).
enum class NumerosityReduction {
  /// Keep every window's word.
  kNone,
  /// Record a word only when it differs from the previous recorded word
  /// (the paper's strategy).
  kExact,
  /// Record a word only when its MINDIST to the previous recorded word is
  /// non-zero (the looser option exposed by the GrammarViz 2.0 UI).
  kMinDist,
};

/// Discretization parameters shared by every SAX consumer in the library.
struct SaxOptions {
  /// Sliding window length (the "seed" size; discovered anomalies are not
  /// bounded by it).
  size_t window = 100;
  /// Number of PAA segments per window (word length).
  size_t paa_size = 4;
  /// Alphabet size in [2, 26].
  size_t alphabet_size = 4;
  /// Numerosity reduction strategy.
  NumerosityReduction numerosity = NumerosityReduction::kExact;
  /// Flat-window threshold for z-normalization.
  double znorm_epsilon = kDefaultZNormEpsilon;

  /// Validates ranges and window-vs-paa consistency.
  Status Validate() const;
};

/// Result of sliding-window discretization: a sequence of packed SAX words
/// (sax/sax_word.h) together with the starting position of each word's
/// window in the original series. After numerosity reduction,
/// words.size() == offsets.size() <= windows.
struct SaxRecords {
  SaxWords words;
  std::vector<size_t> offsets;

  size_t size() const { return words.size(); }
  bool empty() const { return words.empty(); }
};

/// The reference discretization of one window: z-normalizes it, takes its
/// PAA and maps each value to a letter of `alphabet` (which must have size
/// opts.alphabet_size), writing the packed word to
/// code[0..SaxLaneCount(opts.paa_size)).
void SaxWordForWindow(std::span<const double> window, const SaxOptions& opts,
                      const NormalAlphabet& alphabet, uint64_t* code);

/// The numerosity-reduction decision (paper Section 3.2): whether the word
/// `code` of `paa` letters is recorded after the last kept word `prev`
/// (empty when nothing is kept yet). kExact is a lane compare; kMinDist
/// reads the letter fields.
inline bool KeepSaxWord(std::span<const uint64_t> prev,
                        std::span<const uint64_t> code, size_t paa,
                        NumerosityReduction numerosity,
                        const NormalAlphabet& alphabet) {
  if (prev.empty() || numerosity == NumerosityReduction::kNone) {
    return true;
  }
  if (numerosity == NumerosityReduction::kExact) {
    return !SameSaxWord(code, prev);
  }
  return !MinDistIsZero(code, prev, paa, alphabet);
}

/// Sliding-window discretization of `series` under `base` once per
/// alphabet size in `alphabets` (base.alphabet_size is ignored): element i
/// of the result holds the records under alphabets[i] with base's
/// numerosity reduction. Each window's z-space PAA row is computed once
/// from prefix sums and mapped straight to a code for every alphabet
/// (SaxLetterMap); a row whose flat-window decision falls inside its
/// numerical error bound, or with a value within its bound of a breakpoint
/// of the group, is recomputed through SaxWordForWindow for every alphabet,
/// so every word is identical to the reference path's. `stats`, when non-null,
/// must be a RollingStats over exactly `series` (skips the per-call
/// prefix-sum build). Fails when a config is invalid or the series is
/// shorter than the window.
StatusOr<std::vector<SaxRecords>> DiscretizeGroup(
    std::span<const double> series, const SaxOptions& base,
    std::span<const size_t> alphabets, const RollingStats* stats = nullptr);

/// Full sliding-window discretization with the numerosity reduction from
/// `opts` (paper Sections 3.1-3.2): DiscretizeGroup over one alphabet.
/// Fails when `opts` is invalid or the series is shorter than the window.
StatusOr<SaxRecords> Discretize(std::span<const double> series,
                                const SaxOptions& opts);

/// Discretization of every window with no numerosity reduction — one word
/// per window position. Used by HOTSAX.
StatusOr<SaxRecords> DiscretizeAllWindows(std::span<const double> series,
                                          const SaxOptions& opts);

/// Maps z-space PAA values to letters under one or more alphabets at once:
/// a value is located once among the distinct breakpoints of all the
/// alphabets (a branch-free binary search), and each alphabet's letter is
/// then a table lookup by that position. Locate also guards each value: the
/// reference path's value differs from z[j] by at most err[j], so a value
/// that close to any breakpoint could land on the other side of it there,
/// and the caller must use the reference path instead. For one alphabet
/// that is exactly the guard against the two cuts around the value's
/// region; for several it fires whenever any alphabet's guard would.
class SaxLetterMap {
 public:
  /// `alphabets` must be non-empty sizes in [kMinAlphabetSize,
  /// kMaxAlphabetSize].
  explicit SaxLetterMap(std::span<const size_t> alphabets);

  /// Writes the position of each of z[0..paa) among the breakpoints to
  /// at[0..paa). Returns false when a value lies within its error bound
  /// err[j] of a breakpoint.
  bool Locate(const double* z, const double* err, size_t paa,
              uint16_t* at) const {
    bool guarded = false;
    for (size_t j = 0; j < paa; ++j) {
      // upper_bound: the number of cuts the value does not lie strictly
      // below (a NaN lies below none, like NormalAlphabet::IndexOf).
      const double* base = cuts_.data() + 1;
      for (size_t n = cuts_.size() - 2; n > 1;) {
        const size_t half = n / 2;
        base = z[j] < base[half] ? base : base + half;
        n -= half;
      }
      const size_t p = static_cast<size_t>(base - cuts_.data()) -
                       static_cast<size_t>(z[j] < *base);
      // The cuts around position p are cuts_[p] and cuts_[p + 1]: the
      // framing infinities never fire the guard.
      guarded |= (z[j] - cuts_[p] <= err[j]) | (cuts_[p + 1] - z[j] <= err[j]);
      at[j] = static_cast<uint16_t>(p);
    }
    return !guarded;
  }

  /// The packed word of alphabet `i` (index into the constructor's list)
  /// for the positions at[0..paa), written to code[0..SaxLaneCount(paa)).
  void Code(size_t i, const uint16_t* at, size_t paa, uint64_t* code) const {
    const uint8_t* letter = letters_.data() + i * (cuts_.size() - 1);
    uint64_t lane = 0;
    if (paa <= kSaxLettersPerLane) {  // one lane: every default-grid word
      for (size_t j = 0; j < paa; ++j) {
        lane = (lane << kSaxLetterBits) | letter[at[j]];
      }
      code[0] = lane;
      return;
    }
    for (size_t j = 0; j < paa; ++j) {
      lane = (lane << kSaxLetterBits) | letter[at[j]];
      if ((j + 1) % kSaxLettersPerLane == 0 || j + 1 == paa) {
        code[j / kSaxLettersPerLane] = lane;
        lane = 0;
      }
    }
  }

 private:
  // The distinct breakpoints of every alphabet, ascending, framed by -inf
  // and +inf; position p means cuts_[p] <= value < cuts_[p + 1]. At most
  // 25 alphabets of at most 25 cuts each, so positions fit 16 bits.
  std::vector<double> cuts_;
  // Per alphabet, the letter of each position (cuts_.size() - 1 entries).
  std::vector<uint8_t> letters_;
};

/// Per-segment PAA geometry shared by the batch (DiscretizeGroup) and
/// online incremental discretizers. Depends only on (window, paa_size) and
/// is precomputed once per discretizer.
struct SaxPaaGeometry {
  struct Segment {
    double lo;
    double hi;
    size_t first;  // floor(lo): index of the first (possibly partial) sample
    size_t last;   // floor(hi): index one past the last full sample
  };

  explicit SaxPaaGeometry(const SaxOptions& opts);

  size_t window;
  size_t paa;
  bool divisible;
  size_t step;
  std::vector<Segment> segments;  // only for the non-divisible case
};

/// Online (push-one-sample) incremental discretizer: the entry point the
/// streaming engine ingests through. Bounded O(window) memory — a ring of
/// the last `window` raw samples plus a ring of running prefix sums — and
/// O(paa_size) per completed window, with the same exactness contract as
/// DiscretizeGroup: every emitted code is identical to SaxWordForWindow
/// over the same samples, because every numerical decision is guarded by a
/// conservative error bound with fallback to the reference path (the
/// window is materialized from the ring only when a guard fires).
///
/// The prefix rings are rebased on a deterministic sample-count schedule so
/// their magnitude — and with it the error bound — stays proportional to
/// one window's worth of data instead of growing with the stream; the
/// emitted words do not depend on the rebase schedule (only which path
/// computes them does).
///
/// Owns copies of its options and alphabet, so instances are freely
/// movable and outlive any caller state.
class OnlineSaxDiscretizer {
 public:
  /// `opts` must already be validated (SaxOptions::Validate).
  explicit OnlineSaxDiscretizer(const SaxOptions& opts);

  /// Feeds one sample. When this sample completes a window (i.e. at least
  /// `window` samples have been pushed), writes that window's packed word
  /// to code[0..SaxLaneCount(paa_size)), its start index into `*pos`, and
  /// returns true.
  bool Push(double value, uint64_t* code, size_t* pos);

  size_t samples_seen() const { return pushed_; }
  const SaxOptions& options() const { return opts_; }
  const NormalAlphabet& alphabet() const { return alphabet_; }
  /// Windows that went through the reference path because a numerical
  /// guard fired (diagnostic; each costs O(window) instead of O(paa)).
  size_t fallback_words() const { return fallback_words_; }

 private:
  SaxOptions opts_;
  NormalAlphabet alphabet_;
  SaxLetterMap letters_;
  SaxPaaGeometry geometry_;
  size_t pushed_ = 0;
  size_t rebase_period_;
  std::vector<double> ring_;     // last `window` raw samples
  std::vector<double> psum_;     // prefix sums over the stream, ring of w+1
  std::vector<double> psumsq_;   // prefix sums of squares, ring of w+1
  std::vector<double> scratch_;  // contiguous window copy for fallbacks
  std::vector<double> zrow_;
  std::vector<double> zerr_;
  std::vector<uint16_t> located_;
  size_t fallback_words_ = 0;
};

}  // namespace gva

#endif  // GVA_SAX_SAX_TRANSFORM_H_
