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
// chosen bound set.
//
// bound_classes is the one class analysis of a table: class ids by
// cofactor equality and their conflict rows. DC steps 2 and 3
// (decomp/dc_assign.h) read it, and it is the reference of the class queries
// the bound-set search asks each output's OutputView (sym/symmetry.h).
// JointClasses is the one numbering of several outputs' joint classes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "isf/isf.h"
#include "util/graph.h"

namespace mfd {

/// Cofactors of one output w.r.t. a bound set; entry v (bit k of v = value
/// of bound[k]) is the ISF cofactor of f at that bound vertex.
struct CofactorTable {
  std::vector<Isf> entries;
};

CofactorTable cofactor_table(const Isf& f, const std::vector<int>& bound);

/// Partition of a table's vertices by *structural equality* of their (on,
/// care) cofactors: the compatible classes after merging has made class
/// members identical. Returns class id per vertex; ids are dense, in
/// first-seen order. If `first_vertex` is given, it receives each id's
/// first vertex.
std::vector<int> partition_by_equality(const CofactorTable& table,
                                       std::vector<int>* first_vertex = nullptr);

/// One output's classes under a bound set. of_vertex[v] (bit k of v = value
/// of bound[k]) is the id of vertex v's (on, care) cofactor: dense, in
/// first-seen vertex order, so the same on every representation of the
/// function. `conflicts` is the incompatibility graph over the ids, as rows:
/// bit b of row a is set iff the cofactors of ids a and b disagree where
/// both care. It has no vertex when every entry is cared everywhere (a
/// completely specified function): compatibility is then equality, so any
/// two distinct ids conflict, and the ids are the classes.
struct BoundClasses {
  std::vector<int> of_vertex;
  int ids = 0;
  BitGraph conflicts;

  /// True iff there are no rows: every entry is cared everywhere.
  bool complete() const { return conflicts.num_vertices() == 0; }
  friend bool operator==(const BoundClasses&, const BoundClasses&) = default;
};

/// The class analysis of a table: its equality ids, and the rows between
/// them unless every entry is cared everywhere.
void bound_classes(const CofactorTable& table, BoundClasses& out);

/// The classes of f under `bound` from its cofactor_table in the shared
/// manager: the reference of OutputView::classes (sym/symmetry.h).
void bound_classes(const Isf& f, const std::vector<int>& bound, BoundClasses& out);

/// For each vertex v of a bound set of p variables (bit k of v = value of
/// bound[k]), the vertex of the cut at `positions` (a bit per bound
/// position): v's values at those positions, in position order.
void cut_vertices(std::size_t p, std::uint32_t positions, std::vector<std::uint32_t>& out);

/// The joint classes of several outputs' cofactors over one bound set:
/// distinct tuples of per-output ids over the bound vertices, numbered in
/// first-seen vertex order (no coloring). Each output adds its ids per cut
/// vertex, expanded here to the bound's vertices.
class JointClasses {
 public:
  /// Starts over for a bound set of p variables.
  void clear(std::size_t p) {
    p_ = p;
    count_ = 0;
  }
  int count() const { return count_; }
  /// The joint id of each bound vertex, once an output has been added.
  const std::vector<int>& of_vertex() const { return joint_; }

  /// Adds an output whose cut is at `positions`: of_cut_vertex[u] is the id
  /// (of `ids`, dense in first-seen order) of cut vertex u.
  template <class Id>
  void add(std::uint32_t positions, const Id* of_cut_vertex, int ids) {
    cut_vertices(p_, positions, cut_vertex_);
    const std::size_t n = cut_vertex_.size();
    if (count_ == 0) {  // the first output's ids are dense in first-seen order
      joint_.resize(n);
      for (std::size_t v = 0; v < n; ++v) joint_[v] = of_cut_vertex[cut_vertex_[v]];
      count_ = ids;
      return;
    }
    // Pair (joint, id) is slot joint * ids + id, live where its stamp is
    // this call's.
    const std::size_t slots = static_cast<std::size_t>(count_) * static_cast<std::size_t>(ids);
    if (stamp_.size() < slots) {
      stamp_.resize(slots, 0);
      pair_id_.resize(slots);
    }
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    int next = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const std::size_t slot = static_cast<std::size_t>(joint_[v]) * static_cast<std::size_t>(ids) +
                               of_cut_vertex[cut_vertex_[v]];
      if (stamp_[slot] != epoch_) {
        stamp_[slot] = epoch_;
        pair_id_[slot] = next++;
      }
      joint_[v] = pair_id_[slot];
    }
    count_ = next;
  }
  /// add() of an output whose cut is the whole bound set: of_vertex[v] is
  /// the id of bound vertex v.
  void add(const std::vector<int>& of_vertex, int ids) {
    add((std::uint32_t{1} << p_) - 1, of_vertex.data(), ids);
  }

 private:
  std::size_t p_ = 0;
  int count_ = 0;
  std::vector<std::uint32_t> cut_vertex_;
  std::vector<int> joint_;
  std::vector<std::uint32_t> stamp_;
  std::vector<int> pair_id_;
  std::uint32_t epoch_ = 0;
};

/// ceil(log2(k)) for k >= 1; the number of decomposition functions needed to
/// distinguish k classes.
int code_length(int k);

}  // namespace mfd
