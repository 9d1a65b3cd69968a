// A scratch DAG of one incompletely specified function, for the queries the
// decomposition asks of outputs too wide for truth tables (more than
// tt::kMaxVars support variables). The output's view (OutputView,
// sym/symmetry.h) holds one DAG for both: the 2^p cofactors under each
// bound-set candidate and their conflicts (the class query of
// decomp/boundset.cpp), and the pair-symmetry tests of step 1 and of the
// symmetry groups.
//
// * The on- and care-set BDDs are imported once through the manager's
//   read-only accessors (node_level, node_lo, node_hi): the manager gets no
//   node, no reference and no computed-table entry, and its node budget and
//   bdd.mk / bdd.alloc fault points never see the DAG.
// * The copy has no complement edges (f and !f are separate nodes) and is
//   hash-consed, so equal ids are equal functions. Nodes keep the manager
//   levels of the import; variables are mapped through the order of that
//   moment, so a later reordering of the manager changes nothing here.
// * cofactors() makes one cofactor pass per bound variable, top level first,
//   and appends the nodes it builds as scratch nodes. drop_scratch() frees
//   them and shrinks the DAG back to its imported size plus the base.
// * A query that does not start from the base starts from the boundary of
//   its shallowest cut level l_1 (the cut: its bound variables with a node
//   in the import, at levels l_1 < ... < l_c), not from the roots. The
//   first such query walks the on and care roots jointly and records every
//   reachable (on, care) pair with its top level and the shallowest top
//   level of a pair that reaches it in one step. The boundary is the pairs
//   reached from above l_1 whose top is at l_1 or below: one per assignment
//   of the variables above l_1, so nothing above l_1 is copied. A boundary
//   pair whose top lies below l_c is the same at every vertex and is left
//   out. Each vertex's cofactor is then the tuple of its boundary pairs'
//   cofactors: two vertices have equal cofactors iff their tuples are
//   equal, and conflict iff some position conflicts.
// * The base is a second scratch tier: set_base() keeps the cofactors at
//   every vertex of q variables until release_base(). Cofactoring commutes
//   and ids are canonical, so a candidate whose bound holds every base
//   variable starts from the base and makes one pass per other variable,
//   with the same ids. The base's nodes are bounded by 2^(q+1) times the
//   imported nodes, and a candidate's scratch nodes on top of them by
//   2^(p+1) times the imported and base nodes (2^(p+1) times the imported
//   ones without a base).
// * conflict(), equal() and the pair form of conflict() are memoized
//   descents that stop at the first witness. The pair forms read the DAG
//   under two assignments of two variables each, so they allocate no node.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bdd/bdd.h"

namespace mfd::bdd {

class CofactorDag {
 public:
  using Id = std::uint32_t;
  static constexpr Id kZero = 0;
  static constexpr Id kOne = 1;

  /// Values of two distinct variables (manager variable indices).
  struct Pair {
    int var_a;
    bool a;
    int var_b;
    bool b;
  };

  /// Imports the ISF [on, on | !care] of m.
  CofactorDag(const Manager& m, Edge on, Edge care);

  Id on() const { return on_; }
  Id care() const { return care_; }
  /// Nodes in use, the two terminals included: the imported nodes, the base
  /// until release_base(), and the scratch nodes until drop_scratch().
  std::size_t size() const { return nodes_.size(); }
  /// Nodes built since the import, base and scratch nodes alike.
  std::uint64_t nodes_built() const { return built_; }

  /// Writes the cofactors at every vertex of `bound` to `out`: 2^p tuples
  /// of w = out.size() >> p (on, care) id pairs, tuple v (bit k of v =
  /// value of bound[k]) from out[v * w] on. When the bound holds every base
  /// variable in the support, one pass per other such variable from the
  /// base, whose tuples are the whole cofactors (w = 1); otherwise one pass
  /// per bound variable in the support, top level first, over the boundary
  /// pairs of the shallowest one (w: their count). The passes add scratch
  /// nodes, which stay valid until drop_scratch(). Returns true iff it
  /// started from the base.
  bool cofactors(const std::vector<int>& bound, std::vector<std::pair<Id, Id>>& out);

  /// Drops the scratch nodes and the old base, then builds the cofactors at
  /// every vertex of `base` as the new base.
  void set_base(const std::vector<int>& base);
  /// Frees the base and the scratch nodes: size() is back at the import's.
  void release_base();

  /// True iff ((on_a ^ on_b) & care_a & care_b) != 0: the two ISFs disagree
  /// at a point both care about.
  bool conflict(Id on_a, Id care_a, Id on_b, Id care_b);

  /// Frees the scratch nodes and the memo of conflict(): size() is back at
  /// the import's plus the base's, and the ids of scratch nodes are invalid.
  void drop_scratch();

  /// True iff root|x == root|y for an imported root (on() or care()).
  bool equal(Id root, const Pair& x, const Pair& y);
  /// True iff ((on|x ^ on|y) & care|x & care|y) != 0.
  bool conflict(const Pair& x, const Pair& y);

 private:
  struct Node {
    int level;  // kLeafLevel for the terminals
    Id lo, hi;
  };
  static constexpr int kLeafLevel = 0x7FFFFFFF;
  static constexpr Id kNoId = 0xFFFFFFFFu;

  /// A walk's fixed levels (ascending; -1 = none) and their values.
  struct Fix {
    int level[2] = {-1, -1};
    bool value[2] = {false, false};
  };

  /// An (on, care) pair of the roots' joint walk, and the shallowest top
  /// level of a pair that reaches it in one step (-1 for the roots' own
  /// pair).
  struct Reached {
    Id on, care;
    int parent_top;
  };

  /// Open-addressed set of up to four ids, cleared in O(1) by an epoch.
  class IdSet {
   public:
    using Key = std::array<Id, 4>;
    bool contains(const Key& k) const;
    void insert(const Key& k);
    void clear();

   private:
    struct Slot {
      Key key;
      std::uint32_t epoch = 0;
    };
    std::size_t find(const Key& k) const;
    std::vector<Slot> slots_;
    std::uint32_t epoch_ = 1;
    std::size_t count_ = 0;
  };

  Id import(const Manager& m, Edge e, std::unordered_map<std::uint32_t, Id>& memo);
  Id mk(int level, Id lo, Id hi);
  /// The unique-table tag of a live node.
  std::uint32_t tag_of(Id id) const;
  void insert_slot(Id id, std::uint32_t tag);
  void rehash(std::size_t capacity);
  /// Starts the next scratch epoch, which frees the slots of the last one.
  void next_epoch();
  /// The variable's level at the import; -1 for a variable created later.
  int level_of(int var) const;
  /// Sorts into cut_ the (level, position) of the variables of `vars` that
  /// have a node in the import, top level first.
  void cut_of(const std::vector<int>& vars);
  /// Records reached_: every pair the roots reach but two terminals, by top
  /// level, and reached_at_.
  void walk_roots();
  /// Sets the frontier to the boundary pairs of cut_ and returns their count.
  std::size_t boundary();
  /// Splits every frontier entry at `level`: entry i + half takes the 1 side.
  void pass(int level);
  std::pair<Id, Id> split(Id x, int level);

  Fix fix(const Pair& p) const;
  /// Fixes the two sides of the next walks (nullptr: no fixed variable)
  /// and clears the memo of the walks before.
  void fix_sides(const Pair* x, const Pair* y);
  Id resolve(Id x, const Fix& f) const;
  bool equal_rec(Id x, Id y);
  bool conflict_rec(Id on_a, Id care_a, Id on_b, Id care_b);

  std::vector<Node> nodes_;
  std::size_t imported_ = 0;
  std::size_t base_end_ = 0;  // nodes below it are imported or base nodes
  std::uint64_t built_ = 0;
  Id on_ = kZero, care_ = kZero;
  std::vector<int> level_of_var_;  // the manager's order at the import
  std::vector<char> level_used_;   // a node of the import sits on the level

  // Unique table: slot = (id, epoch); epoch 0 marks an imported node,
  // base_tag_ a base node, the current epoch a scratch node, any other a
  // slot freed by drop_scratch() or release_base().
  std::vector<std::pair<Id, std::uint32_t>> unique_;
  std::uint32_t epoch_ = 0;
  std::uint32_t base_tag_ = 0;  // 0 without a base

  // cofactors(): per-pass split memo (valid where stamp == pass), the cut
  // and the frontier.
  std::vector<std::uint32_t> split_stamp_;
  std::vector<std::pair<Id, Id>> split_memo_;
  std::uint32_t pass_ = 0;
  std::vector<std::pair<int, std::size_t>> cut_;  // (level, position in the bound)
  std::vector<std::pair<Id, Id>> frontier_, next_;
  std::vector<std::size_t> index_of_vertex_;

  // The roots' joint walk, by top level, made by the first query that does
  // not start from the base: the pairs whose top is level l are reached_
  // [reached_at_[l], reached_at_[l + 1]). It holds imported ids only, so it
  // stays valid across drop_scratch() and release_base().
  std::vector<Reached> reached_;
  std::vector<std::uint32_t> reached_at_;

  // The base: its levels (ascending; none without a base) and the frontier
  // after their passes.
  std::vector<int> base_levels_;
  std::vector<std::pair<Id, Id>> base_frontier_;

  // Walks: the fixes of the two sides, the deepest fixed level, and the
  // pairs or quadruples known equal or conflict-free under them.
  Fix fix_a_, fix_b_;
  int fixed_until_ = -1;
  IdSet done_;
};

}  // namespace mfd::bdd
