#include "grammar/sequitur.h"

#include <algorithm>
#include <memory>
#include <new>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"

#ifdef GVA_AUDIT
#include "grammar/audit.h"
#endif

// Freed arena slots are poisoned under AddressSanitizer, so a use-after-free
// in the symbol surgery still trips even though the memory is never handed
// back to the allocator.
#if defined(__SANITIZE_ADDRESS__)
#define GVA_SEQUITUR_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GVA_SEQUITUR_ASAN 1
#endif
#endif

#ifdef GVA_SEQUITUR_ASAN
#include <sanitizer/asan_interface.h>
#define GVA_POISON(addr, size) ASAN_POISON_MEMORY_REGION((addr), (size))
#define GVA_UNPOISON(addr, size) ASAN_UNPOISON_MEMORY_REGION((addr), (size))
#else
#define GVA_POISON(addr, size) ((void)(addr), (void)(size))
#define GVA_UNPOISON(addr, size) ((void)(addr), (void)(size))
#endif

namespace gva {
namespace {

// ---------------------------------------------------------------------------
// Internal linked representation, following Nevill-Manning & Witten's
// reference implementation: each rule is a circular doubly-linked list of
// symbols anchored at a guard node; a hash index maps digram contents to the
// first symbol of their unique indexed occurrence.
// ---------------------------------------------------------------------------

struct Rule;

/// `terminal` values that are not terminals.
constexpr int32_t kNonTerminal = -1;
constexpr int32_t kGuard = -2;

struct Sym {
  Sym* next = nullptr;
  Sym* prev = nullptr;
  Rule* rule = nullptr;        // referenced rule (non-terminal), owner (guard)
  uint32_t id = 0;             // digram identity, see IdOf
  int32_t terminal = kNonTerminal;  // >= 0 for terminals

  bool IsGuard() const { return terminal == kGuard; }
  bool IsNonTerminal() const { return terminal == kNonTerminal; }
  bool IsTerminal() const { return terminal >= 0; }
};

struct Rule {
  Sym guard;
  size_t use_count = 0;  // number of non-terminal symbols referencing this
  // Length of the expansion in terminals. Fixed at creation: substituting a
  // digram by its rule and inlining a rule both preserve every expansion.
  size_t expansion = 0;
  uint32_t serial = 0;   // stable identity for digram hashing
  // Extract's scratch: the dense id this rule got in extraction `seen`.
  int32_t extract_id = 0;
  uint64_t seen = 0;

  explicit Rule(uint32_t serial_number) : serial(serial_number) {
    guard.terminal = kGuard;
    guard.rule = this;
    guard.next = &guard;
    guard.prev = &guard;
  }

  Sym* first() { return guard.next; }
  Sym* last() { return guard.prev; }
  bool Empty() { return guard.next == &guard; }
};

/// A slab arena for one trivially destructible type: objects are carved
/// from geometrically growing slabs and recycled through a free list, so
/// the induction makes O(log n) allocator calls instead of one per symbol.
/// Every object dies with the arena.
template <typename T>
class SlabArena {
  static_assert(std::is_trivially_destructible_v<T>);

 public:
  SlabArena() = default;
  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  template <typename... Args>
  T* New(Args&&... args) {
    void* slot = nullptr;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      if (next_ == slab_end_) {
        Grow();
      }
      slot = next_++;
    }
    GVA_UNPOISON(slot, sizeof(T));
    ++live_;
    return ::new (slot) T(std::forward<Args>(args)...);
  }

  void Delete(T* object) {
    GVA_DCHECK(live_ > 0);
    --live_;
    free_.push_back(object);
    GVA_POISON(object, sizeof(T));
  }

  /// Objects handed out and not yet deleted.
  size_t live() const { return live_; }

 private:
  struct alignas(T) Slot {
    unsigned char bytes[sizeof(T)];
  };
  static constexpr size_t kFirstSlab = 64;
  static constexpr size_t kMaxSlab = 16384;

  void Grow() {
    const size_t size =
        slabs_.empty() ? kFirstSlab : std::min(2 * slab_size_, kMaxSlab);
    slabs_.push_back(std::make_unique<Slot[]>(size));
    slab_size_ = size;
    next_ = slabs_.back().get();
    slab_end_ = next_ + size;
    GVA_POISON(next_, size * sizeof(Slot));
  }

  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::vector<void*> free_;
  Slot* next_ = nullptr;
  Slot* slab_end_ = nullptr;
  size_t slab_size_ = 0;
  size_t live_ = 0;
};

/// The digram index: open addressing with linear probing over the exact
/// digram `(IdOf(first), IdOf(second))` packed into 64 bits, so two
/// different digrams can never share an entry. Erased entries become
/// tombstones, reused by later inserts and purged by the next rehash.
class DigramIndex {
 public:
  DigramIndex() : slots_(size_t{1} << kInitialBits) {}
  DigramIndex(const DigramIndex&) = delete;
  DigramIndex& operator=(const DigramIndex&) = delete;

  /// Returns the symbol indexed under `key`; when there is none, indexes
  /// `s` under it and returns nullptr.
  Sym* FindOrInsert(uint64_t key, Sym* s) {
    Slot* reusable = nullptr;
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.sym == nullptr) {
        if (reusable == nullptr) {
          if (used_ + 1 > (mask_ + 1) / 2) {
            Rehash();
            return FindOrInsert(key, s);
          }
          reusable = &slot;
          ++used_;
        }
        reusable->key = key;
        reusable->sym = s;
        ++live_;
        return nullptr;
      }
      if (slot.sym == Tombstone()) {
        if (reusable == nullptr) {
          reusable = &slot;
        }
      } else if (slot.key == key) {
        return slot.sym;
      }
    }
  }

  /// Indexes `s` under `key`, replacing any symbol indexed there.
  void Assign(uint64_t key, Sym* s) {
    Slot* slot = FindSlot(key);
    if (slot != nullptr) {
      slot->sym = s;
    } else {
      FindOrInsert(key, s);
    }
  }

  /// Erases `key` when it indexes `s`; when `twin` is non-null it inherits
  /// the entry instead.
  void Release(uint64_t key, const Sym* s, Sym* twin) {
    Slot* slot = FindSlot(key);
    if (slot == nullptr || slot->sym != s) {
      return;
    }
    if (twin != nullptr) {
      slot->sym = twin;
      return;
    }
    slot->sym = Tombstone();
    --live_;
  }

 private:
  struct Slot {
    uint64_t key = 0;
    Sym* sym = nullptr;  // nullptr: empty; Tombstone(): erased
  };
  static constexpr int kInitialBits = 6;

  /// The tombstone marker: a sentinel no live digram points at.
  Sym* Tombstone() { return &tombstone_; }

  size_t Home(uint64_t key) const {
    // Fibonacci hashing: the multiply spreads both halves of the packed
    // pair over the high bits, which pick the home slot.
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  Slot* FindSlot(uint64_t key) {
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.sym == nullptr) {
        return nullptr;
      }
      if (slot.key == key && slot.sym != Tombstone()) {
        return &slot;
      }
    }
  }

  /// Drops the tombstones, doubling the capacity unless at most a quarter
  /// of it is live.
  void Rehash() {
    const size_t capacity = mask_ + 1;
    if (4 * live_ > capacity) {
      --shift_;
    }
    std::vector<Slot> old(size_t{1} << (64 - shift_));
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    used_ = live_;
    for (const Slot& slot : old) {
      if (slot.sym == nullptr || slot.sym == Tombstone()) {
        continue;
      }
      size_t i = Home(slot.key);
      while (slots_[i].sym != nullptr) {
        i = (i + 1) & mask_;
      }
      slots_[i] = slot;
    }
  }

  Sym tombstone_;
  std::vector<Slot> slots_;
  int shift_ = 64 - kInitialBits;  // 64 - log2(capacity)
  size_t mask_ = (size_t{1} << kInitialBits) - 1;
  size_t live_ = 0;  // slots holding a symbol
  size_t used_ = 0;  // live plus tombstone slots
};

class Inducer {
 public:
  Inducer() : root_(NewRule()) {}

  Inducer(const Inducer&) = delete;
  Inducer& operator=(const Inducer&) = delete;

  void AppendTerminal(int32_t token) {
    Sym* s = NewSym();
    s->terminal = token;
    s->id = (static_cast<uint32_t>(token) << 1) | 1u;
    ++root_->expansion;
    InsertAfter(root_->last(), s);
    Check(s->prev);
  }

  /// Live rules (R0 included) and the symbols on their right-hand sides.
  /// Every live rule is reachable from R0, so this is the shape Extract
  /// returns.
  GrammarShape Shape() const { return {rules_.live(), syms_.live()}; }

  /// Extracts the final grammar (rule table + occurrence lists).
  Grammar Extract(size_t num_tokens);

 private:
  // --- identity & digram index -------------------------------------------

  /// A symbol's digram identity: terminal t is 2t + 1, a non-terminal for
  /// the rule with serial s is 2s. Terminals are below 2^31 and NewRule
  /// keeps serials there too, so the identity fits 32 bits exactly.
  static uint32_t IdOf(const Sym* s) { return s->id; }

  /// The exact digram starting at `s`.
  static uint64_t DigramKey(const Sym* s) {
    return (static_cast<uint64_t>(IdOf(s)) << 32) | IdOf(s->next);
  }

  void DeleteDigram(Sym* s) {
    if (s->IsGuard() || s->next->IsGuard()) {
      return;
    }
    // Inside a run of >= 3 identical symbols ("x x x"), the digram starting
    // at s overlaps an identical digram starting at s->next that was never
    // indexed (Check skips overlapping occurrences). If that twin is still
    // live it inherits the index slot; dropping the entry outright would
    // leave a live digram invisible to future Check calls, which is how
    // duplicate digrams could survive. (If s->next itself is being deleted
    // by the enclosing operation, its own DeleteDigram runs right after and
    // erases the slot again.)
    Sym* twin = s->next;
    const bool inherits = !twin->next->IsGuard() && IdOf(twin) == IdOf(s) &&
                          IdOf(twin->next) == IdOf(twin);
    digrams_.Release(DigramKey(s), s, inherits ? twin : nullptr);
  }

  void IndexDigram(Sym* s) {
    if (s->IsGuard() || s->next->IsGuard()) {
      return;
    }
    digrams_.Assign(DigramKey(s), s);
  }

  // --- linked-list surgery -------------------------------------------------

  /// Links left -> right, un-indexing the digram that previously started at
  /// `left`.
  void Join(Sym* left, Sym* right) {
    if (left->next != nullptr) {
      DeleteDigram(left);
    }
    left->next = right;
    right->prev = left;
  }

  void InsertAfter(Sym* s, Sym* y) {
    Join(y, s->next);
    Join(s, y);
  }

  /// Unlinks and frees `s`, maintaining the digram index and use counts.
  void DeleteSymbol(Sym* s) {
    GVA_DCHECK(!s->IsGuard());
    Join(s->prev, s->next);
    DeleteDigram(s);
    if (s->IsNonTerminal()) {
      Deuse(s->rule);
    }
    syms_.Delete(s);
  }

  // --- rules ---------------------------------------------------------------

  Rule* NewRule() {
    GVA_CHECK(next_serial_ < (uint32_t{1} << 31)) << "Sequitur rule serials";
    return rules_.New(next_serial_++);
  }

  /// Frees a rule whose right-hand side has been spliced elsewhere.
  void FreeRule(Rule* q) { rules_.Delete(q); }

  void Reuse(Rule* r) { ++r->use_count; }
  void Deuse(Rule* r) {
    GVA_DCHECK(r->use_count > 0);
    --r->use_count;
  }

  Sym* NewSym() { return syms_.New(); }

  Sym* NewNonTerminal(Rule* r) {
    Sym* s = NewSym();
    s->rule = r;
    s->id = r->serial << 1;
    Reuse(r);
    return s;
  }

  static size_t ExpansionOf(const Sym* s) {
    return s->IsTerminal() ? 1 : s->rule->expansion;
  }

  Sym* CopyOf(const Sym* s) {
    if (s->IsNonTerminal()) {
      return NewNonTerminal(s->rule);
    }
    Sym* c = NewSym();
    c->terminal = s->terminal;
    c->id = s->id;
    return c;
  }

  // --- the Sequitur invariants --------------------------------------------

  /// Checks the digram starting at `s` against the index. Returns true when
  /// the digram was already present (and was dealt with by Match).
  bool Check(Sym* s) {
    if (s->IsGuard() || s->next->IsGuard()) {
      return false;
    }
    Sym* found = digrams_.FindOrInsert(DigramKey(s), s);
    if (found == nullptr) {
      return false;
    }
    if (found->next != s) {  // Overlapping occurrence (e.g. "aaa"): skip.
      Match(s, found);
    }
    return true;
  }

  /// Deals with a repeated digram: `ss` is the new occurrence, `found` the
  /// indexed one.
  void Match(Sym* ss, Sym* found) {
    Rule* r = nullptr;
    if (found->prev->IsGuard() && found->next->next->IsGuard()) {
      // `found` is the complete RHS of an existing rule: reuse it.
      r = found->prev->rule;
      Substitute(ss, r);
    } else {
      // Create a new rule from the digram's content.
      r = NewRule();
      r->expansion = ExpansionOf(ss) + ExpansionOf(ss->next);
      InsertAfter(r->last(), CopyOf(ss));
      InsertAfter(r->last(), CopyOf(ss->next));
      Substitute(found, r);
      Substitute(ss, r);
      IndexDigram(r->first());
    }
    // Rule utility: inline any rule that is now referenced only once
    // (Nevill-Manning & Witten check the first RHS symbol here; the digram
    // that was just folded starts with it).
    if (r->first()->IsNonTerminal() && r->first()->rule->use_count == 1) {
      Expand(r->first());
    }
  }

  /// Replaces the digram starting at `s` with a non-terminal for `r`.
  void Substitute(Sym* s, Rule* r) {
    Sym* q = s->prev;
    DeleteSymbol(s->next);
    DeleteSymbol(s);
    InsertAfter(q, NewNonTerminal(r));
    if (!Check(q)) {
      Check(q->next);
    }
  }

  /// Inlines the contents of `s`'s rule (used exactly once) in place of `s`
  /// and deletes the rule.
  void Expand(Sym* s) {
    GVA_DCHECK(s->IsNonTerminal());
    Rule* q = s->rule;
    GVA_DCHECK(q->use_count == 1);
    GVA_DCHECK(!q->Empty());
    Sym* left = s->prev;
    Sym* right = s->next;
    Sym* f = q->first();
    Sym* l = q->last();

    DeleteDigram(s);  // un-index (s, right)
    Join(left, f);    // un-indexes (left, s)
    Join(l, right);

    // The rule's symbols now live in the enclosing rule; free the emptied
    // rule and the non-terminal that referenced it.
    FreeRule(q);
    syms_.Delete(s);

    // The spliced-in boundary digram (l, right) may duplicate a digram that
    // already exists elsewhere in the grammar. Blindly indexing it (as the
    // reference implementation does) can orphan the other occurrence and
    // leave a repeated digram behind; running it through the normal check
    // folds the duplicate and keeps the uniqueness invariant intact.
    Check(l);
    if (!left->IsGuard()) {
      Check(left);
    }
  }

  // The arenas own every rule and symbol; declared first so they outlive
  // the pointers below.
  SlabArena<Rule> rules_;
  SlabArena<Sym> syms_;
  DigramIndex digrams_;
  uint32_t next_serial_ = 0;
  uint64_t extractions_ = 0;  // Extract's generation stamp, see Rule::seen
  Rule* root_;
};

Grammar Inducer::Extract(size_t num_tokens) {
  // Assign dense ids by first encounter in a pre-order walk from R0. A rule
  // is numbered in this extraction when its `seen` stamp matches.
  const uint64_t stamp = ++extractions_;
  std::vector<Rule*> ordered;
  std::vector<size_t> rhs_lengths;
  ordered.reserve(rules_.live());
  rhs_lengths.reserve(rules_.live());
  root_->seen = stamp;
  root_->extract_id = 0;
  ordered.push_back(root_);
  for (size_t i = 0; i < ordered.size(); ++i) {
    size_t length = 0;
    for (Sym* s = ordered[i]->first(); !s->IsGuard(); s = s->next) {
      ++length;
      if (s->IsNonTerminal() && s->rule->seen != stamp) {
        s->rule->seen = stamp;
        s->rule->extract_id = static_cast<int32_t>(ordered.size());
        ordered.push_back(s->rule);
      }
    }
    rhs_lengths.push_back(length);
  }

  std::vector<GrammarRule> rules(ordered.size());
  std::vector<uint8_t> nested(ordered.size(), 0);  // RHS has a non-terminal
  for (size_t i = 0; i < ordered.size(); ++i) {
    GrammarRule& out = rules[i];
    out.id = static_cast<int32_t>(i);
    out.use_count = ordered[i]->use_count;
    out.expansion_tokens = ordered[i]->expansion;
    out.rhs.reserve(rhs_lengths[i]);
    for (Sym* s = ordered[i]->first(); !s->IsGuard(); s = s->next) {
      if (s->IsTerminal()) {
        out.rhs.push_back(GrammarSymbol{true, s->terminal});
      } else {
        out.rhs.push_back(GrammarSymbol{false, s->rule->extract_id});
        nested[i] = 1;
      }
    }
  }

  // Occurrences: single walk of R0's expansion recording the start token of
  // every non-terminal occurrence. A rule of terminals only is stepped over
  // whole.
  struct OccFrame {
    size_t rule;
    size_t pos;
  };
  rules[0].occurrences.push_back(0);
  std::vector<OccFrame> stack{{0, 0}};
  size_t token_pos = 0;
  while (!stack.empty()) {
    OccFrame& top = stack.back();
    const GrammarRule& r = rules[top.rule];
    if (top.pos == r.rhs.size()) {
      stack.pop_back();
      continue;
    }
    const GrammarSymbol& sym = r.rhs[top.pos];
    ++top.pos;
    if (sym.is_terminal) {
      ++token_pos;
    } else {
      const size_t child = static_cast<size_t>(sym.id);
      rules[child].occurrences.push_back(token_pos);
      if (nested[child] != 0) {
        stack.push_back({child, 0});
      } else {
        token_pos += rules[child].expansion_tokens;
      }
    }
  }
  GVA_CHECK_EQ(token_pos, num_tokens);

  return Grammar(std::move(rules), num_tokens);
}

}  // namespace

struct IncrementalSequitur::Impl {
  Inducer inducer;
#ifdef GVA_AUDIT
  // Audit builds keep a copy of the appended terminals so every extracted
  // snapshot can be round-trip checked against the exact input.
  std::vector<int32_t> appended;
#endif
};

IncrementalSequitur::IncrementalSequitur() : impl_(new Impl()) {}
IncrementalSequitur::~IncrementalSequitur() = default;
IncrementalSequitur::IncrementalSequitur(IncrementalSequitur&&) noexcept =
    default;
IncrementalSequitur& IncrementalSequitur::operator=(
    IncrementalSequitur&&) noexcept = default;

Status IncrementalSequitur::Append(int32_t token) {
  if (token < 0) {
    return Status::InvalidArgument("token ids must be non-negative");
  }
  impl_->inducer.AppendTerminal(token);
#ifdef GVA_AUDIT
  impl_->appended.push_back(token);
#endif
  ++num_tokens_;
  return Status::Ok();
}

Grammar IncrementalSequitur::ExtractGrammar() const {
  Grammar grammar = impl_->inducer.Extract(num_tokens_);
#ifdef GVA_AUDIT
  // Post-induction audit (GVA_AUDIT trees only): every snapshot handed to a
  // caller satisfies the Sequitur invariants and the density-curve
  // bookkeeping. GVA_DCHECK is always live under GVA_AUDIT (util/check.h).
  const Status audit = AuditGrammar(grammar, impl_->appended);
  GVA_DCHECK(audit.ok()) << audit.message();
#endif
  return grammar;
}

GrammarShape IncrementalSequitur::Shape() const {
  const GrammarShape shape = impl_->inducer.Shape();
#ifdef GVA_AUDIT
  // The counters must describe exactly the grammar a snapshot would hold.
  const Grammar grammar = ExtractGrammar();
  size_t symbols = 0;
  for (const GrammarRule& rule : grammar.rules()) {
    symbols += rule.rhs.size();
  }
  GVA_DCHECK(shape.rules == grammar.size() && shape.symbols == symbols)
      << "grammar shape " << shape.rules << "/" << shape.symbols
      << " != extracted " << grammar.size() << "/" << symbols;
#endif
  return shape;
}

StatusOr<Grammar> InferGrammar(std::span<const int32_t> tokens) {
  GVA_OBS_SPAN("grammar.sequitur.induce");
  IncrementalSequitur sequitur;
  for (int32_t t : tokens) {
    GVA_RETURN_IF_ERROR(sequitur.Append(t));
  }
  return sequitur.ExtractGrammar();
}

StatusOr<WordGrammar> InferGrammarFromWords(const SaxWords& words) {
  WordGrammar result;
  SaxWordInterner interner(words.paa());
  result.tokens.reserve(words.size());
  for (size_t i = 0; i < words.size(); ++i) {
    result.tokens.push_back(interner.Intern(words[i]));
  }
  const SaxWords& distinct = interner.words();
  result.vocabulary.reserve(distinct.size());
  for (size_t t = 0; t < distinct.size(); ++t) {
    result.vocabulary.push_back(distinct.Letters(t));
  }
  GVA_ASSIGN_OR_RETURN(result.grammar, InferGrammar(result.tokens));
  return result;
}

StatusOr<WordGrammar> InferGrammarFromWords(
    const std::vector<std::string>& words) {
  WordGrammar result;
  std::unordered_map<std::string, int32_t> index;
  result.tokens.reserve(words.size());
  for (const std::string& w : words) {
    auto [it, inserted] =
        index.emplace(w, static_cast<int32_t>(result.vocabulary.size()));
    if (inserted) {
      result.vocabulary.push_back(w);
    }
    result.tokens.push_back(it->second);
  }
  GVA_ASSIGN_OR_RETURN(result.grammar, InferGrammar(result.tokens));
  return result;
}

}  // namespace gva
