#ifndef GVA_SAX_MINDIST_H_
#define GVA_SAX_MINDIST_H_

#include <cstdint>
#include <span>
#include <string_view>

#include "sax/alphabet.h"

namespace gva {

/// MINDIST lower bound between two SAX words of equal length w produced
/// from subsequences of original length n (Lin et al. 2002):
///   sqrt(n / w) * sqrt(sum_i cell_dist(a_i, b_i)^2)
/// It lower-bounds the Euclidean distance between the z-normalized
/// originals. Words must have equal length and letters valid for
/// `alphabet`.
double MinDist(std::string_view a, std::string_view b, size_t original_length,
               const NormalAlphabet& alphabet);

/// True when MINDIST between the packed words `a` and `b` of `paa` letters
/// is exactly zero, i.e. every letter pair differs by at most one alphabet
/// position. Used by NumerosityReduction::kMinDist.
bool MinDistIsZero(std::span<const uint64_t> a, std::span<const uint64_t> b,
                   size_t paa, const NormalAlphabet& alphabet);

}  // namespace gva

#endif  // GVA_SAX_MINDIST_H_
