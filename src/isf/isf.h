// Incompletely specified Boolean functions (ISFs).
//
// An ISF is the interval [on, on | !care]: inputs in `care & !on` are OFF,
// inputs in `!care` are don't-cares that any extension may set freely.
// ISFs are the working representation of the whole decomposition flow: even
// for completely specified benchmark functions, the recursive step introduces
// don't cares (composition-function codes that no bound vertex maps to),
// which is exactly the degree of freedom the paper's three-step assignment
// exploits.
#pragma once

#include <vector>

#include "bdd/bdd.h"

namespace mfd {

class Isf {
 public:
  Isf() = default;

  /// ISF with the given on-set and care-set; `on` is clipped to `care` so the
  /// invariant on <= care always holds.
  Isf(bdd::Bdd on, bdd::Bdd care);

  /// Completely specified function (care = 1).
  static Isf completely_specified(bdd::Bdd f);

  const bdd::Bdd& on() const { return on_; }
  const bdd::Bdd& care() const { return care_; }
  bdd::Bdd off() const { return care_ & !on_; }
  bdd::Bdd dc() const { return !care_; }

  bdd::Manager* manager() const { return on_.manager(); }
  bool valid() const { return on_.valid(); }
  bool is_completely_specified() const { return care_.is_true(); }

  Isf cofactor(int var, bool value) const;

  /// True iff `f` is a valid extension: on <= f and f <= on | dc.
  bool admits(const bdd::Bdd& f) const;

  /// True iff the two ISFs agree wherever both care.
  bool compatible_with(const Isf& other) const;

  /// Information union of two compatible ISFs (least common "refinement"):
  /// the result cares wherever either cares. Requires compatible_with(other).
  Isf merge(const Isf& other) const;

  /// The extension that maps every don't care to 0 (the paper's mulopII
  /// reference assignment).
  bdd::Bdd extension_zero() const { return on_; }

  /// An extension chosen for small representation: the Coudert-Madre
  /// restrict of the on-set w.r.t. the care set, unless it keeps the on-set's
  /// support and plain extension-zero has fewer nodes. Restrict never
  /// enlarges the support.
  bdd::Bdd extension_small() const;

  /// Variables on which either the on-set or the care-set depends.
  std::vector<int> support() const;

  /// Two ISFs are equal as *specifications* (same on and care sets).
  friend bool operator==(const Isf& a, const Isf& b) {
    return a.on_ == b.on_ && a.care_ == b.care_;
  }
  friend bool operator!=(const Isf& a, const Isf& b) { return !(a == b); }

 private:
  bdd::Bdd on_;
  bdd::Bdd care_;
};

}  // namespace mfd
