// Compatible classes of bound-set vertices (Roth/Karp [16]).
//
// For a bound set B = {x_b1..x_bp}, the 2^p "bound vertices" are the
// assignments to B; two vertices are compatible when the corresponding
// cofactors agree wherever both care. For completely specified functions
// compatibility is an equivalence and the minimum decomposition-function
// count is ceil(log2(#classes)); for ISFs it is merely reflexive/symmetric,
// and minimizing the class count is a minimum clique cover, i.e. a coloring
// of the incompatibility graph (Chang & Marek-Sadowska [3,2]).
//
// Bound sets in this flow are small (p <= n_LUT + a few), so we enumerate
// all 2^p cofactors explicitly; BDD canonicity makes the pairwise tests and
// the complete-specification class count O(1) hash operations. The
// decomposition step builds these tables in the shared manager for the
// chosen bound set. The bound-set search asks each output's OutputView
// (sym/symmetry.h) for its classes instead, which answers on truth tables or
// a cofactor DAG; bound_classes below, on these tables, is its reference.
#pragma once

#include <span>
#include <vector>

#include "isf/isf.h"
#include "util/coloring.h"

namespace mfd {

/// Cofactors of one output w.r.t. a bound set; entry v (bit k of v = value
/// of bound[k]) is the ISF cofactor of f at that bound vertex.
struct CofactorTable {
  std::vector<Isf> entries;
};

CofactorTable cofactor_table(const Isf& f, const std::vector<int>& bound);

/// Partition of vertices by *structural equality* of their (on, care)
/// cofactors in every listed table (all over the same bound set): the
/// compatible classes after merging has made class members identical.
/// Returns class id per vertex; ids are dense, in first-seen order. If
/// `first_vertex` is given, it receives each id's first vertex.
std::vector<int> partition_by_equality(std::span<const CofactorTable> tables,
                                       std::vector<int>* first_vertex = nullptr);
inline std::vector<int> partition_by_equality(const CofactorTable& table,
                                              std::vector<int>* first_vertex = nullptr) {
  return partition_by_equality(std::span<const CofactorTable>(&table, 1), first_vertex);
}

/// One output's classes under a bound set, as the bound-set search reads
/// them. of_vertex[v] (bit k of v = value of bound[k]) is the id of vertex
/// v's (on, care) cofactor: dense, in first-seen vertex order, so the same
/// on every representation of the function. `conflicts` is the
/// incompatibility graph over the ids, as rows: bit b of row a is set iff
/// the cofactors of ids a and b disagree where both care. It has no vertex
/// for a completely specified function, whose distinct cofactors all
/// conflict.
struct BoundClasses {
  std::vector<int> of_vertex;
  int ids = 0;
  BitGraph conflicts;

  friend bool operator==(const BoundClasses&, const BoundClasses&) = default;
};

/// The classes of f under `bound` from its cofactor_table in the shared
/// manager: the reference of OutputView::classes (sym/symmetry.h).
void bound_classes(const Isf& f, const std::vector<int>& bound, BoundClasses& out);

/// ceil(log2(k)) for k >= 1; the number of decomposition functions needed to
/// distinguish k classes.
int code_length(int k);

}  // namespace mfd
