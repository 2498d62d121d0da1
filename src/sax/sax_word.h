#ifndef GVA_SAX_SAX_WORD_H_
#define GVA_SAX_SAX_WORD_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace gva {

/// Bits of one letter in a packed SAX word; letter 'a' + i is stored as i.
inline constexpr size_t kSaxLetterBits = 5;
/// Letters per 64-bit lane of a packed SAX word.
inline constexpr size_t kSaxLettersPerLane = 12;

/// Number of 64-bit lanes a packed word of `paa` letters occupies: one for
/// paa <= 12, one more per further 12 letters.
constexpr size_t SaxLaneCount(size_t paa) {
  return (paa + kSaxLettersPerLane - 1) / kSaxLettersPerLane;
}

/// Appends letter `j` (0-based; letters must be appended in order into a
/// zeroed code) with letter index `letter`. Lane k holds letters
/// [12k, 12k + 12) as base-32 digits, first letter most significant, so
/// for words of one length, comparing codes lane by lane orders them
/// exactly as comparing their letter strings does.
inline void AppendSaxLetter(uint64_t* code, size_t j, size_t letter) {
  uint64_t& lane = code[j / kSaxLettersPerLane];
  lane = (lane << kSaxLetterBits) | letter;
}

/// Letter index (0 = 'a') of letter `j` of the packed word `code` of `paa`
/// letters.
inline size_t SaxLetterAt(std::span<const uint64_t> code, size_t paa,
                          size_t j) {
  const size_t lane = j / kSaxLettersPerLane;
  const size_t in_lane =
      std::min(kSaxLettersPerLane, paa - lane * kSaxLettersPerLane);
  const size_t shift =
      kSaxLetterBits * (in_lane - 1 - j % kSaxLettersPerLane);
  return static_cast<size_t>(code[lane] >> shift) &
         ((size_t{1} << kSaxLetterBits) - 1);
}

/// Calls f(letter index) for each letter of the packed word `code` of `paa`
/// letters, first to last: one shift and mask per letter.
template <typename F>
void ForEachSaxLetter(std::span<const uint64_t> code, size_t paa, F&& f) {
  constexpr uint64_t kMask = (uint64_t{1} << kSaxLetterBits) - 1;
  for (size_t k = 0, j = 0; k < code.size(); ++k) {
    for (size_t i = std::min(kSaxLettersPerLane, paa - j); i-- > 0; ++j) {
      f(static_cast<size_t>((code[k] >> (kSaxLetterBits * i)) & kMask));
    }
  }
}

/// Renders a packed word of `paa` letters as text ("abca").
std::string SaxLetters(std::span<const uint64_t> code, size_t paa);

/// Packs a word of lowercase letters 'a'..'z' (the inverse of SaxLetters).
std::vector<uint64_t> PackSaxLetters(std::string_view letters);

/// Whether two packed words are equal. Branch-free over the lanes: the
/// discretization loops use the result arithmetically.
inline bool SameSaxWord(std::span<const uint64_t> a,
                        std::span<const uint64_t> b) {
  bool same = true;
  for (size_t k = 0; k < a.size(); ++k) {
    same &= a[k] == b[k];
  }
  return same;
}

/// A sequence of packed SAX words of one length, stored flat, one word's
/// SaxLaneCount(paa) lanes after another. Words are only ever compared
/// for equality, read letter by letter, or rendered at the edge of the
/// library, so no per-word string exists.
class SaxWords {
 public:
  SaxWords() = default;
  /// An empty sequence of words of `paa` letters.
  explicit SaxWords(size_t paa) : paa_(paa), lanes_(SaxLaneCount(paa)) {}
  /// Words of `paa` letters whose lanes are `codes`, back to back.
  SaxWords(size_t paa, std::vector<uint64_t> codes);

  size_t paa() const { return paa_; }
  size_t size() const { return lanes_ == 0 ? 0 : codes_.size() / lanes_; }
  bool empty() const { return codes_.empty(); }

  std::span<const uint64_t> operator[](size_t i) const {
    return {codes_.data() + i * lanes_, lanes_};
  }
  std::span<const uint64_t> back() const {
    return {codes_.data() + codes_.size() - lanes_, lanes_};
  }
  /// Word `i` rendered as letters.
  std::string Letters(size_t i) const { return SaxLetters((*this)[i], paa_); }

  /// Appends a word of SaxLaneCount(paa()) lanes.
  void push_back(std::span<const uint64_t> code) {
    if (lanes_ == 1) {
      codes_.push_back(code[0]);
    } else {
      codes_.insert(codes_.end(), code.begin(), code.end());
    }
  }
  void reserve(size_t words) { codes_.reserve(words * lanes_); }

  friend bool operator==(const SaxWords&, const SaxWords&) = default;

 private:
  size_t paa_ = 0;
  size_t lanes_ = 0;
  std::vector<uint64_t> codes_;
};

/// Dense ids for packed words in order of first appearance: the first
/// distinct word gets 0, the next 1, and so on — the vocabulary numbering
/// every grammar over SAX words uses.
class SaxWordInterner {
 public:
  explicit SaxWordInterner(size_t paa) : words_(paa) {}

  /// The id of `code`, assigning the next one on its first appearance
  /// (then `*inserted`, when given, is set to true).
  int32_t Intern(std::span<const uint64_t> code, bool* inserted = nullptr);

  /// The distinct words, in id order.
  const SaxWords& words() const { return words_; }

 private:
  SaxWords words_;
  // Word hash -> newest id with that hash; chain_[id] is the previous id
  // with the same hash (-1 at the end). A one-lane word is its own hash,
  // so its chain always has length one.
  std::unordered_map<uint64_t, int32_t> heads_;
  std::vector<int32_t> chain_;
};

}  // namespace gva

#endif  // GVA_SAX_SAX_WORD_H_
