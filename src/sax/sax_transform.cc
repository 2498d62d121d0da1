#include "sax/sax_transform.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "backend/backend.h"
#include "obs/trace.h"
#include "sax/paa.h"
#include "timeseries/rolling_stats.h"
#include "timeseries/sliding_window.h"
#include "util/strings.h"

namespace gva {

Status SaxOptions::Validate() const {
  if (window < 2) {
    return Status::InvalidArgument(
        StrFormat("window must be >= 2, got %zu", window));
  }
  if (paa_size < 1) {
    return Status::InvalidArgument("paa_size must be >= 1");
  }
  if (paa_size > window) {
    return Status::InvalidArgument(
        StrFormat("paa_size (%zu) must not exceed window (%zu)", paa_size,
                  window));
  }
  if (alphabet_size < kMinAlphabetSize || alphabet_size > kMaxAlphabetSize) {
    return Status::InvalidArgument(
        StrFormat("alphabet_size (%zu) outside [%zu, %zu]", alphabet_size,
                  kMinAlphabetSize, kMaxAlphabetSize));
  }
  if (znorm_epsilon < 0.0) {
    return Status::InvalidArgument("znorm_epsilon must be non-negative");
  }
  return Status::Ok();
}

void SaxWordForWindow(std::span<const double> window, const SaxOptions& opts,
                      const NormalAlphabet& alphabet, uint64_t* code) {
  thread_local std::vector<double> normalized;
  thread_local std::vector<double> paa;
  ZNormalize(window, normalized, opts.znorm_epsilon);
  Paa(normalized, opts.paa_size, paa);
  std::fill(code, code + SaxLaneCount(opts.paa_size), uint64_t{0});
  for (size_t j = 0; j < paa.size(); ++j) {
    AppendSaxLetter(code, j, alphabet.IndexOf(paa[j]));
  }
}

namespace {

constexpr double kMachEps = std::numeric_limits<double>::epsilon();

/// Weighted raw-value sum of the fractional segment `seg` of the window at
/// `pos`, mirroring the exact-PAA overlap weights of Paa(). `*err` receives
/// a bound on the sum's divergence from naive summation, built from the
/// prefix endpoints and boundary samples actually used. `Source` abstracts
/// where the samples and prefix sums live (a materialized span + RollingStats
/// for the batch kernels, bounded rings for the online one).
template <typename Source>
double FractionalSegmentSum(const Source& src, size_t pos,
                            const SaxPaaGeometry::Segment& seg, double* err) {
  const double x_first = src.Sample(pos + seg.first);
  // Segment contained in a single sample.
  if (seg.last <= seg.first) {
    *err = 4.0 * kMachEps * std::abs(x_first);
    return (seg.hi - seg.lo) * x_first;
  }
  const double first_end = std::min(seg.hi, static_cast<double>(seg.first + 1));
  double sum = (first_end - seg.lo) * x_first;
  double bound = 4.0 * kMachEps * std::abs(x_first);
  const size_t full_begin = seg.first + 1;
  if (seg.last > full_begin) {
    sum += src.Sum(pos + full_begin, seg.last - full_begin);
    bound += src.RangeSumErrorBound(pos + full_begin, seg.last - full_begin);
  }
  const double frac = seg.hi - static_cast<double>(seg.last);
  if (frac > 0.0) {
    const double x_last = src.Sample(pos + seg.last);
    sum += frac * x_last;
    bound += 4.0 * kMachEps * std::abs(x_last);
  }
  *err = bound;
  return sum;
}

/// The alphabet-independent fast path, shared verbatim by the batch
/// (DiscretizeGroup) and online (OnlineSaxDiscretizer) kernels so
/// their guard decisions and emitted z values use the same arithmetic.
/// Computes the z-space PAA values and conservative error bounds of the
/// window at `pos` into z[0..paa) / err[0..paa). Returns false when the
/// flat-window decision falls inside its numerical guard (the caller must
/// use the reference path).
template <typename Source>
bool ZRowFromSource(const Source& src, const SaxPaaGeometry& g,
                    double znorm_epsilon, size_t pos, double* z, double* err) {
  const double n = static_cast<double>(g.window);
  const double mean = src.Sum(pos, g.window) / n;
  double variance = src.SumSq(pos, g.window) / n - mean * mean;
  if (variance < 0.0) {  // numerical noise on near-constant ranges
    variance = 0.0;
  }
  const double sd = std::sqrt(variance);

  // Error bounds for the prefix-derived window statistics versus the
  // reference's naive summation.
  const double mean_err = src.RangeSumErrorBound(pos, g.window) / n;
  const double var_err = src.RangeSumSqErrorBound(pos, g.window) / n +
                         (2.0 * std::abs(mean) + mean_err) * mean_err;
  const double sd_err = variance > var_err ? var_err / sd : std::sqrt(var_err);

  // Guard the flat-window decision itself.
  if (std::abs(sd - znorm_epsilon) <= sd_err) {
    return false;
  }
  const bool flat = sd < znorm_epsilon;
  const double inv = flat ? 1.0 : 1.0 / sd;
  // Relative error of `inv`, as an absolute error per unit of |z|.
  const double inv_rel_err = flat ? 0.0 : sd_err * inv;

  // Segment-sum batching: when the source exposes the backend seam (a
  // contiguous prefix table), the divisible equal-step case hands all
  // `paa` range sums to the active backend's PaaSegmentSums kernel in one
  // call. Each output is the identical single prefix subtraction
  // src.Sum() performs, so the batched and per-segment paths are
  // bit-identical and the guard decisions are unaffected by dispatch. The
  // online ring source has no contiguous prefix and keeps the generic
  // path.
  constexpr size_t kMaxBatchedPaa = 64;
  double seg_sums[kMaxBatchedPaa];
  bool batched = false;
  if constexpr (requires { src.SegmentSums(pos, g.paa, g.step, seg_sums); }) {
    if (g.divisible && g.step > 1 && g.paa <= kMaxBatchedPaa) {
      src.SegmentSums(pos, g.paa, g.step, seg_sums);
      batched = true;
    }
  }

  for (size_t j = 0; j < g.paa; ++j) {
    double seg_mean;
    double seg_err;
    if (g.divisible) {
      if (g.step == 1) {
        seg_mean = src.Sample(pos + j);
        seg_err = 0.0;
      } else {
        const size_t seg_pos = pos + j * g.step;
        seg_mean = (batched ? seg_sums[j] : src.Sum(seg_pos, g.step)) /
                   static_cast<double>(g.step);
        seg_err = src.RangeSumErrorBound(seg_pos, g.step) /
                  static_cast<double>(g.step);
      }
    } else {
      const SaxPaaGeometry::Segment& seg = g.segments[j];
      double sum_err = 0.0;
      seg_mean = FractionalSegmentSum(src, pos, seg, &sum_err) /
                 (seg.hi - seg.lo);
      seg_err = sum_err / (seg.hi - seg.lo);
    }
    // The last term covers the reference path's own rounding: it sums up
    // to `window` z-space values per segment, each O(|z|).
    z[j] = (seg_mean - mean) * inv;
    err[j] = (seg_err + mean_err) * inv + std::abs(z[j]) * inv_rel_err +
             (16.0 + static_cast<double>(g.window)) * kMachEps *
                 (1.0 + std::abs(z[j]));
  }
  return true;
}

/// Source over a materialized series backed by RollingStats prefix sums.
/// Exposes the backend seam (SegmentSums) so the z-row kernel can batch
/// the divisible-case PAA sums through the dispatched kernel.
struct SpanSource {
  std::span<const double> series;
  const RollingStats* stats;
  const backend::KernelBackend* backend;

  double Sample(size_t i) const { return series[i]; }
  void SegmentSums(size_t pos, size_t count, size_t step, double* out) const {
    backend->paa_segment_sums(stats->PrefixSums().data() + pos, count, step,
                              out);
  }
  double Sum(size_t pos, size_t len) const { return stats->Sum(pos, len); }
  double SumSq(size_t pos, size_t len) const { return stats->SumSq(pos, len); }
  double RangeSumErrorBound(size_t pos, size_t len) const {
    return stats->RangeSumErrorBound(pos, len);
  }
  double RangeSumSqErrorBound(size_t pos, size_t len) const {
    return stats->RangeSumSqErrorBound(pos, len);
  }
};

/// Source over the online rings: sample i of the stream lives at
/// ring[i % window], prefix value P(i) at psum[i % (window + 1)]. Valid only
/// for indices inside the currently retained window, which is all the
/// geometry ever asks for. The error bounds reuse RollingStats' formula
/// (kRangeSumErrFactor over the larger prefix endpoint) so both layers
/// guard identically.
struct RingSource {
  const std::vector<double>* ring;
  const std::vector<double>* psum;
  const std::vector<double>* psumsq;
  size_t window;

  double Sample(size_t i) const { return (*ring)[i % window]; }
  double PrefixAt(const std::vector<double>& p, size_t i) const {
    return p[i % (window + 1)];
  }
  double Sum(size_t pos, size_t len) const {
    return PrefixAt(*psum, pos + len) - PrefixAt(*psum, pos);
  }
  double SumSq(size_t pos, size_t len) const {
    return PrefixAt(*psumsq, pos + len) - PrefixAt(*psumsq, pos);
  }
  double RangeSumErrorBound(size_t pos, size_t len) const {
    const double lo = std::abs(PrefixAt(*psum, pos));
    const double hi = std::abs(PrefixAt(*psum, pos + len));
    return kRangeSumErrFactor * std::max({1.0, lo, hi});
  }
  double RangeSumSqErrorBound(size_t pos, size_t len) const {
    const double lo = PrefixAt(*psumsq, pos);
    const double hi = PrefixAt(*psumsq, pos + len);
    return kRangeSumErrFactor * std::max({1.0, lo, hi});
  }
};

}  // namespace

SaxLetterMap::SaxLetterMap(std::span<const size_t> alphabets) {
  GVA_CHECK(!alphabets.empty());
  std::vector<NormalAlphabet> each;
  for (const size_t a : alphabets) {
    each.emplace_back(a);
    cuts_.insert(cuts_.end(), each.back().breakpoints().begin(),
                 each.back().breakpoints().end());
  }
  std::sort(cuts_.begin(), cuts_.end());
  cuts_.erase(std::unique(cuts_.begin(), cuts_.end()), cuts_.end());
  cuts_.insert(cuts_.begin(), -std::numeric_limits<double>::infinity());
  cuts_.push_back(std::numeric_limits<double>::infinity());
  // Position p holds the values in [cuts_[p], cuts_[p + 1]); its letter
  // under an alphabet is the number of that alphabet's cuts at or below
  // cuts_[p].
  for (const NormalAlphabet& alphabet : each) {
    for (size_t p = 0; p + 1 < cuts_.size(); ++p) {
      letters_.push_back(static_cast<uint8_t>(
          std::upper_bound(alphabet.breakpoints().begin(),
                           alphabet.breakpoints().end(), cuts_[p]) -
          alphabet.breakpoints().begin()));
    }
  }
}

SaxPaaGeometry::SaxPaaGeometry(const SaxOptions& opts)
    : window(opts.window),
      paa(opts.paa_size),
      divisible(opts.window % opts.paa_size == 0),
      step(opts.window / opts.paa_size) {
  if (!divisible) {
    const double dn = static_cast<double>(window);
    const double w = static_cast<double>(paa);
    segments.reserve(paa);
    for (size_t j = 0; j < paa; ++j) {
      Segment seg;
      seg.lo = static_cast<double>(j) * dn / w;
      seg.hi = static_cast<double>(j + 1) * dn / w;
      seg.first = static_cast<size_t>(std::floor(seg.lo));
      seg.last = static_cast<size_t>(std::floor(seg.hi));
      segments.push_back(seg);
    }
  }
}

OnlineSaxDiscretizer::OnlineSaxDiscretizer(const SaxOptions& opts)
    : opts_(opts),
      alphabet_(opts.alphabet_size),
      letters_({&opts.alphabet_size, 1}),
      geometry_(opts),
      // Rebasing every 8 windows keeps the prefix magnitudes — and with
      // them the guard bounds — proportional to one window of data, at an
      // amortized rebuild cost of 1/8 of a sample per push.
      rebase_period_(8 * opts.window),
      ring_(opts.window, 0.0),
      psum_(opts.window + 1, 0.0),
      psumsq_(opts.window + 1, 0.0),
      scratch_(opts.window, 0.0),
      zrow_(opts.paa_size, 0.0),
      zerr_(opts.paa_size, 0.0),
      located_(opts.paa_size, 0) {}

bool OnlineSaxDiscretizer::Push(double value, uint64_t* code, size_t* pos) {
  const size_t w = opts_.window;
  const size_t m = w + 1;
  if (pushed_ >= w && pushed_ % rebase_period_ == 0) {
    // Rebase: rebuild the retained prefix entries from the ring so prefix
    // magnitudes restart from zero. Which window values the fast path sees
    // changes only within the guard bounds, so emitted codes — always
    // identical to the reference — do not depend on the rebase schedule.
    const size_t base = pushed_ - w;
    psum_[base % m] = 0.0;
    psumsq_[base % m] = 0.0;
    for (size_t i = base; i < pushed_; ++i) {
      const double v = ring_[i % w];
      psum_[(i + 1) % m] = psum_[i % m] + v;
      psumsq_[(i + 1) % m] = psumsq_[i % m] + v * v;
    }
  }
  const size_t t = pushed_;
  ring_[t % w] = value;
  psum_[(t + 1) % m] = psum_[t % m] + value;
  psumsq_[(t + 1) % m] = psumsq_[t % m] + value * value;
  ++pushed_;
  if (pushed_ < w) {
    return false;
  }
  const size_t at = pushed_ - w;
  *pos = at;
  const RingSource src{&ring_, &psum_, &psumsq_, w};
  if (ZRowFromSource(src, geometry_, opts_.znorm_epsilon, at, zrow_.data(),
                     zerr_.data()) &&
      letters_.Locate(zrow_.data(), zerr_.data(), geometry_.paa,
                      located_.data())) {
    letters_.Code(0, located_.data(), geometry_.paa, code);
  } else {
    // Materialize the window from the ring for the reference path. The w
    // consecutive stream indices [at, at + w) occupy each ring slot
    // exactly once.
    for (size_t i = 0; i < w; ++i) {
      scratch_[i] = ring_[(at + i) % w];
    }
    SaxWordForWindow(scratch_, opts_, alphabet_, code);
    ++fallback_words_;
  }
  return true;
}

StatusOr<std::vector<SaxRecords>> DiscretizeGroup(
    std::span<const double> series, const SaxOptions& base,
    std::span<const size_t> alphabets, const RollingStats* stats) {
  std::vector<NormalAlphabet> letters;
  letters.reserve(alphabets.size());
  SaxOptions options = base;
  for (const size_t a : alphabets) {
    options.alphabet_size = a;
    GVA_RETURN_IF_ERROR(options.Validate());
    letters.emplace_back(a);
  }
  if (alphabets.empty()) {
    return std::vector<SaxRecords>{};
  }
  if (series.size() < base.window) {
    return Status::InvalidArgument(
        StrFormat("series length %zu shorter than window %zu", series.size(),
                  base.window));
  }
  if (stats != nullptr && stats->size() != series.size()) {
    return Status::InvalidArgument(
        StrFormat("shared RollingStats covers %zu points, series has %zu",
                  stats->size(), series.size()));
  }
  // The rolling-moment (z-norm) table, unless the caller shares one; the
  // loop below is the word extraction proper. Separate spans let a trace
  // show where discretization time actually goes.
  std::optional<RollingStats> owned;
  if (stats == nullptr) {
    GVA_OBS_SPAN("sax.znorm_stats");
    stats = &owned.emplace(series);
  }
  GVA_OBS_SPAN("sax.words");
  const SaxPaaGeometry geometry(base);
  const SpanSource src{series, stats, &backend::ActiveBackend()};
  const size_t windows = NumSlidingWindows(series.size(), base.window);
  const size_t paa = base.paa_size;
  const size_t lanes = SaxLaneCount(paa);
  const SaxLetterMap map(alphabets);
  // Per alphabet, every window's code is written straight into the next
  // free slot, and the slot is claimed (kept += 1) only when numerosity
  // reduction keeps the word, so the keep decision is arithmetic, not a
  // branch on the data.
  struct Output {
    std::vector<uint64_t> codes;  // `windows` slots of `lanes` lanes
    std::vector<size_t> offsets;  // `windows` slots
    size_t kept = 0;
  };
  std::vector<Output> outputs(alphabets.size());
  for (Output& o : outputs) {
    o.codes.resize(windows * lanes);
    o.offsets.resize(windows);
  }
  // Rows go in blocks: each row's z values are computed and located once,
  // then each alphabet codes the whole block in a tight loop of its own.
  constexpr size_t kBlock = 256;
  std::vector<double> z(paa);
  std::vector<double> err(paa);
  std::vector<uint16_t> located(kBlock * paa);
  std::vector<uint8_t> fast(kBlock);
  for (size_t begin = 0; begin < windows; begin += kBlock) {
    const size_t rows = std::min(kBlock, windows - begin);
    for (size_t r = 0; r < rows; ++r) {
      fast[r] = ZRowFromSource(src, geometry, base.znorm_epsilon, begin + r,
                               z.data(), err.data()) &&
                map.Locate(z.data(), err.data(), paa, &located[r * paa]);
    }
    for (size_t i = 0; i < alphabets.size(); ++i) {
      uint64_t* codes = outputs[i].codes.data();
      size_t* offsets = outputs[i].offsets.data();
      size_t kept = outputs[i].kept;
      for (size_t r = 0; r < rows; ++r) {
        uint64_t* slot = codes + kept * lanes;
        if (fast[r] != 0) {
          map.Code(i, &located[r * paa], paa, slot);
        } else {
          options.alphabet_size = alphabets[i];
          SaxWordForWindow(WindowAt(series, begin + r, base.window), options,
                           letters[i], slot);
        }
        const std::span<const uint64_t> prev =
            kept == 0 ? std::span<const uint64_t>()
                      : std::span<const uint64_t>(slot - lanes, lanes);
        offsets[kept] = begin + r;
        kept += static_cast<size_t>(KeepSaxWord(
            prev, {slot, lanes}, paa, base.numerosity, letters[i]));
      }
      outputs[i].kept = kept;
    }
  }
  std::vector<SaxRecords> out(alphabets.size());
  for (size_t i = 0; i < alphabets.size(); ++i) {
    Output& o = outputs[i];
    o.codes.resize(o.kept * lanes);
    o.offsets.resize(o.kept);
    out[i].words = SaxWords(paa, std::move(o.codes));
    out[i].offsets = std::move(o.offsets);
  }
  return out;
}

StatusOr<SaxRecords> Discretize(std::span<const double> series,
                                const SaxOptions& opts) {
  GVA_ASSIGN_OR_RETURN(
      std::vector<SaxRecords> records,
      DiscretizeGroup(series, opts, {&opts.alphabet_size, 1}));
  return std::move(records.front());
}

StatusOr<SaxRecords> DiscretizeAllWindows(std::span<const double> series,
                                          const SaxOptions& opts) {
  SaxOptions all = opts;
  all.numerosity = NumerosityReduction::kNone;
  return Discretize(series, all);
}

}  // namespace gva
