// Bound-set selection (Section 5, step 1 context).
//
// Candidates are windows over the step's window-seed order (seed_order in
// step.cpp: symmetry groups kept contiguous and chained by support
// co-occurrence; it never reads the manager's order), refined by a local
// exchange search that swaps bound against free variables.
//
// A candidate is scored by the support reduction it buys:
//   benefit = sum_i (|supp(f_i) /\ B| - r_i),
// with r_i the per-output code length after an (inexpensive) ISF coloring of
// the candidate's cofactor table; ties prefer larger sharing potential
// (sum r_i - r_joint, the gap the paper's step 2 exploits), then fewer
// total functions, then the earliest-generated candidate. Generation
// position is a canonical, manager-independent key (window start, then move
// index), so the winner never depends on allocation order.
//
// Each output is scored through its OutputView (sym/symmetry.h), which the
// decomposition step builds once and shares with the pair scans of step 1:
// the view answers a candidate's class query (a class id per bound vertex
// and the conflict rows over the classes) on truth tables for outputs of at
// most tt::kMaxVars support variables and on a scratch cofactor DAG above,
// so the search creates no node in the shared BDD manager. Each output is asked
// about its cut (the candidate's variables in its support, in candidate
// order), whose classes expanded to the candidate's vertices are the
// candidate's: the view serves a cut it has scored before from its stored
// answer (never while memoization could observe timing, rule 2 of
// docs/CACHING.md), and a DAG answers each exchange move of a batch with one
// split pass from the batch's base, the incumbent's other p-1 variables.
// Those answers live as long as the views, one decomposition step, and are
// the search's only memo. Every fresh answer is colored at one site here.
// Reference views answer from the manager's own cofactors (cofactor_table,
// decomp/compat.h): evaluate_bound_set without views, which the tests
// compare against. The cross-check mode (MFD_CACHE_CHECK=1) recomputes
// every view answer and every reused answer on the shared manager. Every
// path sees the same cofactor equality, vertex order, incompatibility graph
// and coloring seed, so they return identical scores.
#pragma once

#include <cstdint>
#include <vector>

#include "isf/isf.h"
#include "sym/symmetry.h"

namespace mfd {

struct BoundSetOptions {
  int improvement_passes = 2;
  /// Cap on evaluated candidates (windows + exchange moves).
  int max_evaluations = 200;
  /// Read by nothing: candidates are scored on the calling thread. Kept only
  /// because the benchmark driver (perfbench/driver.cpp) still assigns it.
  int jobs = 1;
};

struct BoundSetChoice {
  std::vector<int> vars;          // empty = no profitable bound set found
  long benefit = -1;              // sum_i (cut_i - r_i)
  int sharing_gap = 0;            // sum_i r_i - r_joint
  long sum_r = 0;                 // sum_i r_i
  std::vector<int> r_per_output;  // r_i for each output

  friend bool operator==(const BoundSetChoice&, const BoundSetChoice&) = default;
};

/// Evaluates one candidate bound set on the outputs' views; a view serves
/// an output whose cut it has scored before from its stored answer.
BoundSetChoice evaluate_bound_set(std::vector<OutputView>& views,
                                  const std::vector<int>& bound, std::uint64_t seed);

/// The reference: the same evaluation on reference views, which take each
/// output's classes from its cofactors in the shared manager.
BoundSetChoice evaluate_bound_set(const std::vector<Isf>& fns,
                                  const std::vector<int>& bound, std::uint64_t seed);

/// Searches for the best bound set of size p among the variables of
/// `order` (the active variables in window-seed order), one view per
/// output; `seed` is every candidate's coloring seed.
BoundSetChoice select_bound_set(std::vector<OutputView>& views,
                                const std::vector<int>& order, int p,
                                std::uint64_t seed, const BoundSetOptions& opts = {});

}  // namespace mfd
