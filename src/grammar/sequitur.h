#ifndef GVA_GRAMMAR_SEQUITUR_H_
#define GVA_GRAMMAR_SEQUITUR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "grammar/grammar.h"
#include "sax/sax_word.h"
#include "util/statusor.h"

namespace gva {

/// The size of a grammar without its content: what a compression score
/// needs (see SweepParameterGrid), read from the live induction state.
struct GrammarShape {
  size_t rules = 0;    ///< rules including R0 (Grammar::size())
  size_t symbols = 0;  ///< right-hand-side symbols summed over all rules
};

/// Incremental Sequitur: tokens are appended one at a time and a grammar
/// snapshot can be extracted at any point — the induction is inherently
/// online (the paper's Section 7 points at real-time streams for exactly
/// this reason). InferGrammar() below is the batch convenience wrapper.
///
/// Move-only; the internal symbol graph is owned by the instance.
class IncrementalSequitur {
 public:
  IncrementalSequitur();
  ~IncrementalSequitur();
  IncrementalSequitur(IncrementalSequitur&&) noexcept;
  IncrementalSequitur& operator=(IncrementalSequitur&&) noexcept;
  IncrementalSequitur(const IncrementalSequitur&) = delete;
  IncrementalSequitur& operator=(const IncrementalSequitur&) = delete;

  /// Appends one terminal. Amortized O(1). Fails on negative ids.
  Status Append(int32_t token);

  /// Number of terminals appended so far.
  size_t num_tokens() const { return num_tokens_; }

  /// Extracts a snapshot of the current grammar (rule table, use counts,
  /// occurrences). O(grammar size + occurrences); the induction state is
  /// not disturbed and further Append calls are fine.
  Grammar ExtractGrammar() const;

  /// The shape ExtractGrammar() would return, in O(1): the rule count and
  /// the summed right-hand-side length, without building the grammar.
  GrammarShape Shape() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  size_t num_tokens_ = 0;
};

/// Infers a context-free grammar from `tokens` with the Sequitur algorithm
/// (Nevill-Manning & Witten 1997). The algorithm processes the input left to
/// right in amortized linear time and space, maintaining two invariants:
///
///  * digram uniqueness — no pair of adjacent symbols appears more than once
///    in the grammar; a repeated digram is replaced by a non-terminal;
///  * rule utility — every rule other than R0 is used at least twice; a rule
///    whose use count drops to one is inlined and removed.
///
/// Token ids must be non-negative. An empty input produces a grammar with a
/// single empty R0.
StatusOr<Grammar> InferGrammar(std::span<const int32_t> tokens);

/// A grammar induced over a word vocabulary (e.g. SAX words): tokens are
/// vocabulary indices, `vocabulary[t]` is the text of terminal t — the
/// one place a SAX word exists as a string, once per distinct word.
struct WordGrammar {
  Grammar grammar;
  std::vector<std::string> vocabulary;
  std::vector<int32_t> tokens;

  /// The word for terminal token `t`.
  const std::string& WordOf(int32_t t) const {
    GVA_CHECK(t >= 0 && static_cast<size_t>(t) < vocabulary.size());
    return vocabulary[static_cast<size_t>(t)];
  }
};

/// Tokenizes the packed SAX words `words` against a fresh vocabulary (first
/// occurrence order, interned on the code) and infers the grammar. Each
/// distinct word is rendered once into the vocabulary.
StatusOr<WordGrammar> InferGrammarFromWords(const SaxWords& words);

/// The same over arbitrary text tokens (first occurrence order).
StatusOr<WordGrammar> InferGrammarFromWords(
    const std::vector<std::string>& words);

}  // namespace gva

#endif  // GVA_GRAMMAR_SEQUITUR_H_
