// Packed truth tables of small functions (at most kMaxVars variables): the
// one table format of the library.
//
// A table over n variables holds bit m = the function's value at the minterm
// whose table variable j is bit j of m, packed into 64-bit words, low minterms
// first. A table of fewer than six variables fills its single word by
// repetition (as if it were a six-variable table that ignores the missing
// variables), so word-wide operations never need a mask.
//
// Every small function of the flow is such a table: a LUT's function
// (net::Lut::table, table variable j = fanin j), a decomposition function
// over the 2^p bound vertices (Encoding::functions, table variable j =
// bound[j]), and the local don't-care tables of odc_resubst. The input edits
// of the network passes (cofactor-and-remove, depends_on, flip_var, identify,
// compose) and the conversions to and from BDDs (to_bdd, from_bdd) live here,
// so no pass re-derives the format. to_bdd builds a LUT over global fanin
// functions by cofactor recursion, one ite per split, as a BDD vector
// composition does; verification, odc_resubst's BDD path and the rebuild of
// oversized decomposition functions all build their BDDs through it.
//
// odc_resubst also holds every signal of a network with at most kMaxVars
// primary inputs as a table over those inputs (table variable i = primary
// input i): each LUT's signal is compose(lut.table, fanin signals), and its
// care and SDC sets are word-wide operators and is_constant tests.
//
// A decomposition step's output views (sym/symmetry.h) hold the on- and
// care-set tables (isf_tables) of every output of at most kMaxVars support
// variables, and answer two queries on them. A bound-set candidate's class
// query moves the c bound variables to the top of a copy of the tables, so
// the 2^c cofactors are contiguous blocks of 2^(n-c) bits, which hash,
// compare and test for ISF compatibility word by word instead of walking
// the BDD once per cofactor. A pair-symmetry test of step 1 or of the
// symmetry groups compares the tables with their mirror image under
// swap_vars and flip_var, word by word. Tables are built from BDDs
// bottom-up in the manager's level order, so a node costs only the size of
// its own sub-table.
//
// A view of a wider output answers both queries on a scratch cofactor DAG
// instead (bdd/cofactor_dag.h), so neither query builds a node in the
// shared manager at any width.
#pragma once

#include <compare>
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
  /// The constant 0 over no variables.
  TruthTable() : TruthTable(0) {}
  /// The constant `value` over num_vars variables; throws mfd::Error unless
  /// 0 <= num_vars <= kMaxVars.
  explicit TruthTable(int num_vars, bool value = false);
  /// The table over num_vars <= 6 variables whose minterm m has bit m of
  /// `bits` (bits above 2^num_vars are ignored), e.g. from_word(2, 0x8) is
  /// the AND of variables 0 and 1.
  static TruthTable from_word(int num_vars, std::uint64_t bits);
  /// The projection onto variable j of num_vars variables.
  static TruthTable var(int num_vars, int j);

  int num_vars() const { return n_; }
  std::uint64_t num_minterms() const { return std::uint64_t{1} << n_; }
  std::size_t num_words() const { return words_.size(); }
  std::uint64_t* data() { return words_.data(); }
  const std::uint64_t* data() const { return words_.data(); }

  bool operator[](std::uint64_t minterm) const {
    return ((words_[minterm >> 6] >> (minterm & 63)) & 1) != 0;
  }
  void set(std::uint64_t minterm, bool value);
  /// True iff every minterm has the value `value`.
  bool is_constant(bool value) const;

  TruthTable& operator&=(const TruthTable& o);
  TruthTable& operator|=(const TruthTable& o);
  TruthTable& operator^=(const TruthTable& o);
  friend TruthTable operator~(TruthTable t);
  friend TruthTable operator&(TruthTable a, const TruthTable& b) { return a &= b; }
  friend TruthTable operator|(TruthTable a, const TruthTable& b) { return a |= b; }
  friend TruthTable operator^(TruthTable a, const TruthTable& b) { return a ^= b; }

  /// Exchanges variables a and b in place: afterwards bit m holds the old
  /// bit at m with bits a and b exchanged. One pass over the words.
  void swap_vars(int a, int b);
  /// Complements variable j in place: afterwards bit m holds the old bit at
  /// m with bit j flipped.
  void flip_var(int j);
  /// True iff the function depends on variable j (its two cofactors differ).
  bool depends_on(int j) const;
  /// The cofactor at variable j = value as a table over the other n-1
  /// variables: variable j is removed and the variables above it move down
  /// one place.
  TruthTable cofactor(int j, bool value) const;
  /// The function restricted to variable k = variable j (j < k), with k
  /// removed as in cofactor: the table of a LUT whose fanins j and k are one
  /// signal.
  TruthTable identify(int j, int k) const;

  friend bool operator==(const TruthTable&, const TruthTable&) = default;
  friend std::strong_ordering operator<=>(const TruthTable&, const TruthTable&) = default;

 private:
  int n_ = 0;
  std::vector<std::uint64_t> words_;
};

/// f(args[0], ..., args[n-1]) over num_vars variables: variable j of f is
/// replaced by args[j], a table over num_vars variables; n = f.num_vars().
TruthTable compose(const TruthTable& f, const std::vector<TruthTable>& args, int num_vars);

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

/// Tables of `roots` over `vars` (any order, at most kMaxVars variables),
/// which must contain every variable the roots depend on: table variable j
/// is manager variable vars[j]. Built in the manager's current level order,
/// deepest level first, one sub-table per BDD node bottom-up from its
/// children's: a node at depth r below the top costs 2^(n-r)/64 words, not
/// 2^n/64, and a complement edge costs a negation. A `vars` order other than
/// that costs one swap_vars per misplaced variable.
std::vector<TruthTable> from_bdd(const bdd::Manager& m,
                                 const std::vector<bdd::Edge>& roots,
                                 const std::vector<int>& vars);

namespace detail {

/// to_bdd of the sub-table over variables 0..k-1 that starts at bit `first`
/// (a multiple of 2^k) of t.
template <typename Fanin>
bdd::Bdd to_bdd_rec(const TruthTable& t, int k, std::uint64_t first, bdd::Manager& m,
                    Fanin& fanin) {
  if (k == 0) return m.constant(t[first]);
  // The halves, top variable k-1 at 0 and at 1, are the adjacent blocks
  // b and b+1 of 2^(k-1) bits; equal halves are built once.
  const std::uint64_t half = std::uint64_t{1} << (k - 1);
  const std::size_t b = static_cast<std::size_t>(first / half);
  const bdd::Bdd lo = to_bdd_rec(t, k - 1, first, m, fanin);
  if (Blocks(t, k - 1).equal(b, b + 1)) return lo;
  const bdd::Bdd hi = to_bdd_rec(t, k - 1, first + half, m, fanin);
  if (hi == lo) return lo;
  const bdd::Bdd& in = fanin(k - 1);
  return m.wrap(m.ite(in.id(), hi.id(), lo.id()));
}

}  // namespace detail

/// The BDD of t with variable j read as fanin(j), by cofactor recursion: the
/// table splits on its top variable down to constants, and two halves that
/// build the same BDD are that BDD; otherwise the halves join with one
/// ite(fanin(j), hi, lo). So fanin is never called for a variable
/// the table ignores, a constant table calls it not at all, and an
/// n-variable table calls it at most 2^n - 1 times. fanin(j) returns a
/// bdd::Bdd (or a reference to one) of m.
template <typename Fanin>
bdd::Bdd to_bdd(const TruthTable& t, bdd::Manager& m, Fanin&& fanin) {
  return detail::to_bdd_rec(t, t.num_vars(), 0, m, fanin);
}

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
