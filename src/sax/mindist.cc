#include "sax/mindist.h"

#include <cmath>

#include "sax/sax_word.h"
#include "util/check.h"

namespace gva {

double MinDist(std::string_view a, std::string_view b, size_t original_length,
               const NormalAlphabet& alphabet) {
  GVA_CHECK_EQ(a.size(), b.size());
  GVA_CHECK_GT(a.size(), 0u);
  double sum_sq = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = alphabet.CellDistance(NormalAlphabet::IndexOfLetter(a[i]),
                                           NormalAlphabet::IndexOfLetter(b[i]));
    sum_sq += d * d;
  }
  const double scale =
      std::sqrt(static_cast<double>(original_length) /
                static_cast<double>(a.size()));
  return scale * std::sqrt(sum_sq);
}

bool MinDistIsZero(std::span<const uint64_t> a, std::span<const uint64_t> b,
                   size_t paa, const NormalAlphabet& alphabet) {
  GVA_CHECK_EQ(a.size(), b.size());
  for (size_t j = 0; j < paa; ++j) {
    if (alphabet.CellDistance(SaxLetterAt(a, paa, j),
                              SaxLetterAt(b, paa, j)) > 0.0) {
      return false;
    }
  }
  return true;
}

}  // namespace gva
