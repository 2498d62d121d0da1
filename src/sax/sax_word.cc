#include "sax/sax_word.h"

#include <utility>

#include "util/check.h"

namespace gva {

std::string SaxLetters(std::span<const uint64_t> code, size_t paa) {
  std::string letters;
  letters.reserve(paa);
  ForEachSaxLetter(code, paa, [&letters](size_t letter) {
    letters.push_back(static_cast<char>('a' + letter));
  });
  return letters;
}

std::vector<uint64_t> PackSaxLetters(std::string_view letters) {
  std::vector<uint64_t> code(SaxLaneCount(letters.size()), 0);
  for (size_t j = 0; j < letters.size(); ++j) {
    GVA_CHECK(letters[j] >= 'a' && letters[j] <= 'z')
        << "not a SAX letter: '" << letters[j] << "'";
    AppendSaxLetter(code.data(), j, static_cast<size_t>(letters[j] - 'a'));
  }
  return code;
}

SaxWords::SaxWords(size_t paa, std::vector<uint64_t> codes)
    : paa_(paa), lanes_(SaxLaneCount(paa)), codes_(std::move(codes)) {
  GVA_CHECK(lanes_ > 0 && codes_.size() % lanes_ == 0)
      << codes_.size() << " lanes do not hold whole words of " << paa
      << " letters";
}

int32_t SaxWordInterner::Intern(std::span<const uint64_t> code,
                                bool* inserted) {
  uint64_t hash = code[0];
  for (size_t k = 1; k < code.size(); ++k) {
    hash = hash * 0x9e3779b97f4a7c15ULL ^ code[k];
  }
  const auto head = heads_.try_emplace(hash, -1).first;
  for (int32_t id = head->second; id >= 0;
       id = chain_[static_cast<size_t>(id)]) {
    if (SameSaxWord(words_[static_cast<size_t>(id)], code)) {
      if (inserted != nullptr) {
        *inserted = false;
      }
      return id;
    }
  }
  const auto id = static_cast<int32_t>(chain_.size());
  chain_.push_back(head->second);
  head->second = id;
  words_.push_back(code);
  if (inserted != nullptr) {
    *inserted = true;
  }
  return id;
}

}  // namespace gva
