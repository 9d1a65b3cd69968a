// Benchmark function generators.
//
// The paper evaluates on MCNC/ISCAS benchmarks, whose PLA/BLIF files are not
// shipped in this offline environment. Two kinds of stand-ins (see
// DESIGN.md, "Substitutions"):
//  * exact generators for rows with a public functional definition
//    (rd53/rd73/rd84, 9sym, z4ml, count-class arithmetic, C499-class
//    error correction, adders, partial multipliers);
//  * deterministic synthetic functions with the same I/O counts and
//    PLA-like cube structure for rows that exist only as PLA files
//    (misex*, duke2, sao2, vg2, b9, apex7, e64-class, C880-class, rot-class).
// A user with the real MCNC files can load them through mfd::io instead.
#pragma once

#include <string>
#include <vector>

#include "bdd/bdd.h"

namespace mfd::circuits {

/// A multi-output completely specified benchmark function.
struct Benchmark {
  std::string name;
  int num_inputs = 0;
  std::vector<bdd::Bdd> outputs;  ///< over manager variables 0..num_inputs-1
};

/// Ensures the manager has at least n variables.
void ensure_vars(bdd::Manager& m, int n);

/// Sets a variable order that round-robins across the given groups (classic
/// operand interleaving: without it, word-level functions like adders have
/// exponential BDDs). Variables of the manager not mentioned keep their
/// relative order below the interleaved block. Cheap when called before any
/// nodes exist, which is how the generators use it.
void interleave_order(bdd::Manager& m, const std::vector<std::vector<int>>& groups);

// ---- word-level helpers (BDD vectors, little endian) -------------------
using Word = std::vector<bdd::Bdd>;

/// The w variables starting at `first` as a word.
Word input_word(bdd::Manager& m, int first, int w);
/// a + b (+cin), result has max(|a|,|b|)+1 bits.
Word add_words(const Word& a, const Word& b, bdd::Bdd cin = {});
/// One's-counter: binary count of the given bits.
Word count_ones(bdd::Manager& m, const std::vector<bdd::Bdd>& bits);
/// a * b (schoolbook), result |a|+|b| bits.
Word multiply_words(const Word& a, const Word& b);
/// Word equal to a constant.
bdd::Bdd word_equals(const Word& a, std::uint64_t value);

// ---- named generators ----------------------------------------------------

/// n-bit adder: inputs a0..a(n-1), b0..b(n-1); outputs n sum bits + carry.
Benchmark adder(bdd::Manager& m, int n);

/// Partial multiplier pm_n of Section 6.1: the n*n partial products are the
/// *inputs* p(i,j) (variable i*n+j, weight i+j); outputs the 2n product bits.
Benchmark partial_multiplier(bdd::Manager& m, int n);

/// n x n multiplier (operands as inputs).
Benchmark multiplier(bdd::Manager& m, int n);

/// Builds a named benchmark of the paper's tables; throws mfd::Error, naming
/// the registered benchmarks, on an unknown name.
Benchmark build(const std::string& name, bdd::Manager& m);

/// Names of all Table-1/Table-2 rows available from build().
std::vector<std::string> table_rows();

}  // namespace mfd::circuits
