// Packed truth tables of small functions (at most kMaxVars variables).
//
// A table over n variables holds bit m = the function's value at the minterm
// whose table variable j is bit j of m, packed into 64-bit words, low minterms
// first. A table of fewer than six variables fills its single word by
// repetition (as if it were a six-variable table that ignores the missing
// variables), so word-wide operations never need a mask.
//
// The decomposition flow scores bound-set candidates on these tables
// (decomp/boundset.cpp). With the c bound variables moved to the top of a
// table, the 2^c cofactors are contiguous blocks of 2^(n-c) bits, which hash,
// compare and test for ISF compatibility word by word instead of walking the
// BDD once per cofactor. Tables are built from BDDs bottom-up in the
// manager's level order, so a node costs only the size of its own sub-table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bdd/bdd.h"
#include "isf/isf.h"

namespace mfd::tt {

/// The widest table the kernel builds: 2^16 bits = 1024 words = 8 KiB.
inline constexpr int kMaxVars = 16;

/// Words of a table over n variables.
constexpr std::size_t num_words(int n) {
  return n <= 6 ? 1 : std::size_t{1} << (n - 6);
}

class TruthTable {
 public:
  TruthTable() = default;
  /// The constant `value` over n <= kMaxVars variables.
  explicit TruthTable(int num_vars, bool value = false);

  int num_vars() const { return n_; }
  std::size_t size() const { return words_.size(); }
  std::uint64_t* data() { return words_.data(); }
  const std::uint64_t* data() const { return words_.data(); }

  bool bit(std::uint64_t minterm) const {
    return ((words_[minterm >> 6] >> (minterm & 63)) & 1) != 0;
  }
  /// True iff every minterm has the value `value`.
  bool is_constant(bool value) const;

  TruthTable& operator&=(const TruthTable& o);

  /// Exchanges variables a and b in place: afterwards bit m holds the old
  /// bit at m with bits a and b exchanged. One pass over the words.
  void swap_vars(int a, int b);

  friend bool operator==(const TruthTable&, const TruthTable&) = default;

 private:
  int n_ = 0;
  std::vector<std::uint64_t> words_;
};

/// A table read as 2^(n-w) cofactor blocks of 2^w bits: block b is the
/// cofactor at the assignment whose top variable n-w+i takes bit i of b.
class Blocks {
 public:
  Blocks(const TruthTable& t, int block_vars)
      : data_(t.data()), w_(block_vars),
        mask_(block_vars >= 6 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << (1 << block_vars)) - 1) {}

  std::size_t words_per_block() const { return num_words(w_); }

  /// Word k of block b. A block narrower than a word comes right-aligned
  /// with the bits above it cleared.
  std::uint64_t word(std::size_t b, std::size_t k) const {
    if (w_ >= 6) return data_[(b << (w_ - 6)) + k];
    const std::size_t first = b << w_;
    return (data_[first >> 6] >> (first & 63)) & mask_;
  }

  std::uint64_t hash(std::size_t b) const;
  bool equal(std::size_t a, std::size_t b) const;

 private:
  const std::uint64_t* data_;
  int w_;
  std::uint64_t mask_;
};

/// True iff ISF cofactor blocks a and b (on- and care-set blocks of the same
/// tables) agree wherever both care: ((on_a ^ on_b) & care_a & care_b) == 0
/// in every word.
bool compatible(const Blocks& on, const Blocks& care, std::size_t a, std::size_t b);

/// Tables of `roots` over `vars`, which must contain every variable the
/// roots depend on and list them in the manager's current level order,
/// deepest level first: table variable j is manager variable vars[j], so the
/// top variable is the most significant bit. One sub-table per BDD node,
/// built bottom-up from its children's: a node at depth r below the top
/// costs 2^(n-r)/64 words, not 2^n/64, and a complement edge costs a
/// negation. At most kMaxVars variables.
std::vector<TruthTable> from_bdd(const bdd::Manager& m,
                                 const std::vector<bdd::Edge>& roots,
                                 const std::vector<int>& vars);

/// An ISF's on- and care-set tables over its support.
struct IsfTables {
  /// Table variable j is manager variable vars[j] (deepest level first).
  std::vector<int> vars;
  TruthTable on, care;
  /// care is the constant 1.
  bool complete = false;

  int num_vars() const { return static_cast<int>(vars.size()); }
};

/// Builds the tables of f over `support`, which must contain f's support
/// (any order, at most kMaxVars variables). The on table is clipped to the
/// care table, like Isf's own constructor clips the on-set.
IsfTables isf_tables(const Isf& f, std::vector<int> support);

}  // namespace mfd::tt
