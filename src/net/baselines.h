// Structural reference circuits from the paper's evaluation:
//  * the conditional-sum adder of Sklansky [22] — the hand-designed
//    comparison point of Figure 2 (90 two-input gates for 8 bits in the
//    paper's counting),
//  * the Wallace-tree multiplier [23] — the comparison point of Figure 3
//    (~10n^2 - 20n gates),
//  * a ripple-carry adder as a simple correctness anchor.
// All are built from two-input LUTs ("gates"); use LutNetwork::count_gates()
// for the gate counts reported in EXPERIMENTS.md.
#pragma once

#include "net/lutnet.h"

namespace mfd::net {

/// Small convenience layer for building gate-level networks. Gate tables are
/// written as words: bit m is the value at a = bit 0, b = bit 1 of m.
class GateBuilder {
 public:
  explicit GateBuilder(LutNetwork& net) : net_(net) {}

  int and2(int a, int b) { return gate(a, b, 0x8); }
  int or2(int a, int b) { return gate(a, b, 0xE); }
  int xor2(int a, int b) { return gate(a, b, 0x6); }
  int xnor2(int a, int b) { return gate(a, b, 0x9); }
  int andn2(int a, int b) { return gate(a, b, 0x2); }  // a & !b
  int inv(int a) { return net_.add_lut({{a}, tt::TruthTable::from_word(1, 0x1)}); }
  /// sel ? d1 : d0, expanded into three two-input gates.
  int mux(int sel, int d1, int d0);
  /// Full adder; returns {sum, carry} (5 gates).
  std::pair<int, int> full_adder(int a, int b, int cin);
  /// Half adder; returns {sum, carry} (2 gates).
  std::pair<int, int> half_adder(int a, int b);

 private:
  int gate(int a, int b, std::uint64_t table) {
    return net_.add_lut({{a, b}, tt::TruthTable::from_word(2, table)});
  }
  LutNetwork& net_;
};

/// n-bit conditional-sum adder. Primary inputs: a0..a(n-1), b0..b(n-1)
/// (PI index i = a_i, n + i = b_i). Outputs: sum bits s0..s(n-1), carry out.
/// n must be a power of two (the classic block-doubling scheme).
LutNetwork conditional_sum_adder(int n);

/// n-bit ripple-carry adder with the same interface.
LutNetwork ripple_carry_adder(int n);

/// Wallace-tree reduction over the n*n partial-product *inputs* p(i,j)
/// (PI index i*n + j, weight i+j), i.e. the pm_n "partial multiplier" of the
/// paper's Section 6.1. Outputs the 2n product bits.
LutNetwork wallace_tree_pp(int n);

}  // namespace mfd::net
