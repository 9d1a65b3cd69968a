// Bound-set selection (Section 5, step 1 context).
//
// Candidates are windows over the symmetric-sifting variable order — the
// paper's "starting point of our search for good candidates" — refined by a
// local exchange search that swaps bound against free variables (whole
// symmetry groups are kept on one side by construction of the order).
//
// A candidate is scored by the support reduction it buys:
//   benefit = sum_i (|supp(f_i) /\ B| - r_i),
// with r_i the per-output code length after an (inexpensive) ISF coloring of
// the candidate's cofactor table; ties prefer larger sharing potential
// (sum r_i - r_joint, the gap the paper's step 2 exploits), then fewer
// total functions, then the earliest-generated candidate. Generation
// position is a canonical, manager-independent key (window start, then move
// index), so the winner never depends on allocation order, completion
// order, or thread count.
//
// With `jobs > 1` the search runs generate -> parallel-evaluate ->
// deterministic reduce: each batch of candidates is scored on a worker pool
// where every worker owns a private bdd::Manager populated once via
// `transfer_from` (workers never touch the caller's manager), and the
// reduction scans results in candidate order. A candidate's score is pure
// scalar data derived from function identity, not from node layout, so
// per-worker managers yield bit-identical scores and the chosen bound set is
// invariant under `jobs` (see docs/PARALLELISM.md).
//
// An output whose support has at most tt::kMaxVars variables is scored on
// packed truth tables (src/tt) that the search builds once on the calling
// thread and shares read-only with the workers; wider outputs enumerate BDD
// cofactors. Both paths see the same cofactor equality, vertex order,
// incompatibility graph and coloring seed, so they return identical scores.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "isf/isf.h"
#include "tt/tt.h"

namespace mfd::cache {
class SignatureComputer;
}  // namespace mfd::cache

namespace mfd {

struct BoundSetOptions {
  int improvement_passes = 2;
  /// Cap on evaluated candidates (windows + exchange moves).
  int max_evaluations = 200;
  std::uint64_t seed = 1;
  /// Worker threads (caller included) used to score candidates; 1 = serial.
  /// Any value yields the same chosen bound set.
  int jobs = 1;
};

struct BoundSetChoice {
  std::vector<int> vars;          // empty = no profitable bound set found
  long benefit = -1;              // sum_i (cut_i - r_i)
  int sharing_gap = 0;            // sum_i r_i - r_joint
  long sum_r = 0;                 // sum_i r_i
  std::vector<int> r_per_output;  // r_i for each output
};

/// Truth tables of the outputs, by output index: present for every output
/// whose support has at most tt::kMaxVars variables, empty for wider ones.
using OutputTables = std::vector<std::optional<tt::IsfTables>>;

OutputTables build_output_tables(const std::vector<Isf>& fns,
                                 const std::vector<std::vector<int>>& supports);

/// Evaluates one candidate bound set. `sig` (a signature computer over the
/// functions' manager) routes the whole evaluation through the multiplicity
/// cache (docs/CACHING.md) — a hit skips the cofactor-table construction and
/// ISF colorings; nullptr evaluates uncached. Either way the returned scores
/// are identical — the cache is an optimization only, never part of the
/// result. Outputs with an entry in `tables` are scored on their truth
/// tables, the others (all of them if `tables` is nullptr) on BDD cofactors;
/// the scores are the same either way.
BoundSetChoice evaluate_bound_set(const std::vector<Isf>& fns,
                                  const std::vector<std::vector<int>>& supports,
                                  const std::vector<int>& bound,
                                  std::uint64_t seed,
                                  cache::SignatureComputer* sig = nullptr,
                                  const OutputTables* tables = nullptr);

/// Searches for the best bound set of size p among the variables of
/// `order` (the active variables, most significant level first).
BoundSetChoice select_bound_set(const std::vector<Isf>& fns,
                                const std::vector<int>& order, int p,
                                const BoundSetOptions& opts = {});

}  // namespace mfd
