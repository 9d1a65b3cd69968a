// Canonical function signatures for the memoization layer (docs/CACHING.md).
//
// A FunctionSignature identifies a Boolean function *semantically*: it is the
// function's multilinear extension evaluated at a fixed pseudo-random point,
// modulo the Mersenne prime 2^61 - 1, under two independent salts (~122 bits
// of identity). Because the multilinear extension is a canonical object of
// the function itself, the signature is
//   * variable-order independent — re-sifting the manager does not change it,
//     so the portfolio's second entry hits entries produced by the first;
//   * manager independent — two managers produce the same signature for the
//     same function, so a cache entry stays valid beyond the manager that
//     made it, where raw edge bits (recycled by GC, private per manager)
//     could not;
//   * complement-friendly — H(!f) = 1 - H(f) (mod p), so negating a function
//     is an O(1) signature operation and complement-normalized keys
//     ("f and !f collide") need no second traversal.
//
// The evaluation recurses over the BDD: H(ONE) = 1, H(node v) =
// r_v * H(hi) + (1 - r_v) * H(lo), with r_v a fixed per-variable constant.
// Two distinct functions of n variables collide with probability <= (n/p)^2
// by Schwartz-Zippel — negligible against the flow's problem sizes, and the
// cache's debug cross-check mode (MFD_CACHE_CHECK=1) recomputes every hit to
// flush out the impossible.
//
// A SignatureComputer memoizes per-node hashes for one manager. The memo is
// keyed by node index and cleared whenever the manager's gc_runs counter
// advances (garbage collection is the only event that recycles indices;
// in-place reordering preserves the index -> function mapping, and the hash
// is order independent, so reorders do *not* invalidate).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "bdd/bdd.h"

namespace mfd::cache {

/// Semantic identity of one Boolean function (see header notes). Value type;
/// suitable as (part of) a cache key.
struct FunctionSignature {
  std::uint64_t w0 = 0;  ///< H(f) under salt 0, in [0, 2^61 - 1)
  std::uint64_t w1 = 0;  ///< H(f) under salt 1

  friend bool operator==(const FunctionSignature& a, const FunctionSignature& b) {
    return a.w0 == b.w0 && a.w1 == b.w1;
  }
  friend bool operator!=(const FunctionSignature& a, const FunctionSignature& b) {
    return !(a == b);
  }
  /// Arbitrary-but-canonical order (used to pick a complement representative).
  friend bool operator<(const FunctionSignature& a, const FunctionSignature& b) {
    return a.w0 != b.w0 ? a.w0 < b.w0 : a.w1 < b.w1;
  }
};

/// Signature evaluator bound to one manager, with a per-node memo.
/// Not thread safe. Signatures agree across managers by construction, so
/// computers over different managers still feed (and hit) the same cache
/// entries.
class SignatureComputer {
 public:
  explicit SignatureComputer(const bdd::Manager& m) : m_(&m) {}

  /// Signature of the function rooted at `e` (complement honoured: `of(e)`
  /// and `of(!e)` differ, and are mutual complements mod p).
  FunctionSignature of(bdd::Edge e);

  /// Complement-normalized signature: the smaller of `of(e)` and `of(!e)`.
  /// `flipped`, when given, receives true iff the complement was chosen —
  /// the bit a caller needs to normalize a whole cofactor *vector*
  /// consistently (flip every entry by entry 0's choice, not per entry).
  FunctionSignature of_normalized(bdd::Edge e, bool* flipped = nullptr);

  /// Nodes currently memoized (for tests and the cache.entries gauge).
  std::size_t memo_size() const { return memo_.size(); }

 private:
  void refresh_epoch();
  std::pair<std::uint64_t, std::uint64_t> hash_regular(bdd::Edge regular);

  const bdd::Manager* m_;
  std::uint64_t seen_gc_runs_ = ~std::uint64_t{0};
  /// regular-edge node index -> (h0, h1) of the *regular* function.
  std::unordered_map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> memo_;
};

}  // namespace mfd::cache
