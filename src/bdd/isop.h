// Irredundant sum-of-products extraction (Minato-Morreale ISOP).
//
// Computes a cube cover C with  L <= C <= U  for an interval [L, U] — for a
// completely specified f use L = U = f; for an ISF use L = on, U = on | dc,
// which yields the classic "minimize with don't cares" two-level cover.
// The cover is irredundant by construction (each cube covers some minterm of
// L no other cube covers).
//
// This is the bridge from BDD-land back to two-level formats: io::write_pla
// of synthesized or specification functions goes through here.
#pragma once

#include <vector>

#include "bdd/bdd.h"

namespace mfd::bdd {

/// One product term: (variable, phase) literals; empty = tautology cube.
struct Cube {
  std::vector<std::pair<int, bool>> literals;
};

/// Minato-Morreale ISOP of the interval [lower, upper].
/// Requires lower <= upper (as functions).
std::vector<Cube> isop(Manager& m, Edge lower, Edge upper);

}  // namespace mfd::bdd
