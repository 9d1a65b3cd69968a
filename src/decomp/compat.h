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
// the complete-specification class count O(1) hash operations.
#pragma once

#include <span>
#include <vector>

#include "isf/isf.h"
#include "util/graph.h"

namespace mfd {

/// Cofactors of one output w.r.t. a bound set; entry v (bit k of v = value
/// of bound[k]) is the ISF cofactor of f at that bound vertex.
struct CofactorTable {
  std::vector<Isf> entries;
  int num_bound_vars() const;
};

CofactorTable cofactor_table(const Isf& f, const std::vector<int>& bound);

/// True iff the two vertex cofactors agree wherever both care.
bool vertices_compatible(const Isf& a, const Isf& b);

/// Number of compatible classes of a *completely specified* function
/// (distinct cofactors) — the classic ncc(f, B).
int ncc_complete(bdd::Manager& m, bdd::Edge f, const std::vector<int>& bound);

/// Incompatibility graph over the 2^p vertices of one output.
Graph incompatibility_graph(const CofactorTable& table);

/// Joint incompatibility over all outputs: an edge as soon as any output
/// finds the two vertices incompatible (Section 5, step 2 of the paper).
Graph joint_incompatibility_graph(const std::vector<CofactorTable>& tables);

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

/// ceil(log2(k)) for k >= 1; the number of decomposition functions needed to
/// distinguish k classes.
int code_length(int k);

}  // namespace mfd
