#ifndef GVA_CORE_PARAMETER_PROFILE_H_
#define GVA_CORE_PARAMETER_PROFILE_H_

#include <span>
#include <vector>

#include "sax/sax_transform.h"
#include "util/statusor.h"

namespace gva {

/// How one (window, paa, alphabet) combination behaves on a series — the
/// two axes of the paper's Figure 10 exploratory study (Section 5.2):
/// the precision of the raw-signal approximation, and the size of the
/// resulting grammar.
struct GrammarProfile {
  SaxOptions sax;
  /// Mean per-point reconstruction error of the SAX approximation over the
  /// kept (numerosity-reduced) windows: each letter is decoded to the
  /// median value of its equiprobable region, expanded back over the
  /// window and compared against the z-normalized original.
  double approximation_error = 0.0;
  /// Number of grammar rules, R0 included.
  size_t rules = 0;
  /// Total right-hand-side symbols over all rules — the grammar's size.
  size_t grammar_size = 0;
  /// Tokens after numerosity reduction.
  size_t tokens = 0;
  /// 1 - grammar_size / tokens: how much Sequitur compressed the token
  /// stream (0 = incompressible, -> 1 = highly regular).
  double compression = 0.0;
  /// Selection heuristic: compression discounted by approximation error.
  /// Zero when the combination is degenerate (almost no tokens or no
  /// rules).
  double score = 0.0;
};

/// Profiles a single parameter combination. Fails on invalid options or a
/// series shorter than the window.
StatusOr<GrammarProfile> ProfileParameters(std::span<const double> series,
                                           const SaxOptions& options);

/// Grid for SweepParameterGrid / SuggestParameters.
struct ParameterGrid {
  std::vector<size_t> windows = {50, 100, 150, 200, 300};
  std::vector<size_t> paa_sizes = {3, 4, 5, 6, 8};
  std::vector<size_t> alphabet_sizes = {3, 4, 5, 6};
};

/// Profiles every valid combination of the grid (combinations whose series
/// is shorter than two windows or whose PAA exceeds the window are
/// skipped), in grid order: windows, then PAA sizes, then alphabets. Every
/// profile is bit-identical to ProfileParameters on the same combination.
/// The series statistics are built once per call, and each (window, paa)
/// group is discretized in one DiscretizeGroup pass over its alphabets.
/// `num_threads` caps the lanes the groups run on (0 = all cores); the
/// result is identical for every value.
StatusOr<std::vector<GrammarProfile>> SweepParameterGrid(
    std::span<const double> series, const ParameterGrid& grid,
    size_t num_threads = 1);

/// The profile with the highest score, the first one in `profiles` on a
/// tie. NotFound when `profiles` is empty or no score is positive.
StatusOr<GrammarProfile> BestProfile(
    const std::vector<GrammarProfile>& profiles);

/// Picks the grid combination with the best score (BestProfile over
/// SweepParameterGrid) — a data-driven starting point for the
/// discretization parameters, following the paper's observation that
/// context-driven parameter choices (one heartbeat, one week, one cycle)
/// produce sensible grammars: such choices sit where the grammar is both
/// small and faithful.
StatusOr<SaxOptions> SuggestParameters(std::span<const double> series,
                                       const ParameterGrid& grid = {},
                                       size_t num_threads = 1);

}  // namespace gva

#endif  // GVA_CORE_PARAMETER_PROFILE_H_
