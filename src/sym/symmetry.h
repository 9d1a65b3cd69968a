// Symmetry detection for (incompletely specified) Boolean functions, and the
// one view of an output that every query of a decomposition step reads.
//
// Symmetries matter twice in the decomposition flow (Section 4 of the paper):
//  * a function symmetric in its whole bound set of size p needs at most
//    ceil(log2(p+1)) decomposition functions, and
//  * strict decomposition functions inherit the symmetries of the function
//    they decompose, so symmetry gains persist through the recursion.
//
// We handle the two classic pair symmetries of [5]:
//   nonequivalence (NE):  f|x_i=0,x_j=1 == f|x_i=1,x_j=0   (exchange x_i,x_j)
//   equivalence (E):      f|x_i=0,x_j=0 == f|x_i=1,x_j=1
// Both are instances of the G-symmetries of [6] (combinations of exchanges
// and negations).
//
// The free functions below test one pair on the BDDs in the shared manager.
// A decomposition step asks each output through one OutputView: the pair
// scans of step 1 (symmetrize, symmetry_groups) and the class queries of
// the bound-set search (decomp/boundset.h). The free tests and
// bound_classes (decomp/compat.h) stay as its reference.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bdd/cofactor_dag.h"
#include "decomp/compat.h"
#include "isf/isf.h"
#include "tt/tt.h"

namespace mfd {

enum class SymmetryKind { kNonequivalence, kEquivalence };

/// True iff the completely specified function `f` is NE/E-symmetric in
/// (var_a, var_b).
bool is_symmetric(bdd::Manager& m, bdd::Edge f, int var_a, int var_b,
                  SymmetryKind kind);

/// True iff the ISF is symmetric *as a specification*: both the on-set and
/// the care-set are invariant (don't cares treated as a third value).
bool isf_is_symmetric(const Isf& f, int var_a, int var_b, SymmetryKind kind);

/// True iff the don't cares of `f` can be assigned so that the result is
/// NE/E-symmetric in (var_a, var_b): no input pattern where the two relevant
/// cofactors are cared for with conflicting values.
bool symmetrizable(const Isf& f, int var_a, int var_b, SymmetryKind kind);

/// Assigns don't cares of `f` to make it NE/E-symmetric in (var_a, var_b).
/// Precondition: symmetrizable(...). The assignment is minimal: only points
/// forced by the mirror cofactor become cared for.
Isf make_symmetric(const Isf& f, int var_a, int var_b, SymmetryKind kind);

/// One output of a decomposition step: its ISF, its sorted support, and,
/// built on the first query that needs them, its on- and care-set tables
/// over the support (at most tt::kMaxVars variables) or its cofactor DAG
/// (bdd/cofactor_dag.h); neither holds a reference or makes a node in the
/// shared manager. The answers are exactly the reference's:
///  * is_symmetric and symmetrizable return what isf_is_symmetric and
///    symmetrizable return. A support pre-check answers first: with neither
///    variable in the support the pair is symmetric, with exactly one it is
///    not symmetric as a specification. Tables compare with their mirror
///    image under the pair; the DAG is walked under the pair's two
///    assignments, which allocates nothing.
///  * classes writes what bound_classes writes; the DAG drops the
///    candidate's scratch nodes before it returns. Between set_base calls
///    the DAG keeps the cofactors at the base variables' vertices as its
///    base, built at the first class query after the call, and answers a
///    query whose bound holds them with one pass per other variable. Any
///    other DAG query starts from the boundary pairs below its shallowest
///    cut level and compares the vertices' tuples of pairs position by
///    position (bdd/cofactor_dag.h).
/// A reference view answers every query on the shared manager. Under the
/// cache's cross-check mode (MFD_CACHE_CHECK=1) every other view recomputes
/// each answer there, and a mismatch aborts.
///
/// The bound-set search also keeps its answers here, one per cut: the cut
/// of an output under a bound set B is B's variables in its support, in B's
/// order. The output's classes under B are its classes under the cut,
/// expanded to B's vertices with the same ids (first-seen vertex order
/// follows the cut's order), so the conflicts, the coloring and the code
/// length follow from the cut too. An answer holds the code length and one
/// byte of class id per cut vertex, in flat storage. It does not depend on
/// the variable order, so it survives rebuild(); it dies with reset() and
/// with the view. Reference views keep none.
class OutputView {
 public:
  explicit OutputView(Isf f);
  /// The view that answers from the shared manager: the reference.
  static OutputView reference(Isf f);

  /// Replaces the function (e.g. by its make_symmetric result) and forgets
  /// the stored answers.
  void reset(Isf f);
  /// Drops the tables or DAG; the next query builds them in the manager's
  /// current variable order (a DAG imported before a sift is larger).
  void rebuild();

  const Isf& isf() const { return f_; }
  const std::vector<int>& support() const { return support_; }
  bool in_support(int v) const;
  /// True iff the queries run on truth tables, which never read the
  /// manager's variable order: a decomposition step sifts the order only
  /// when some view's queries do not.
  bool on_tables() const { return path_ == Path::kTables; }

  bool is_symmetric(int var_a, int var_b, SymmetryKind kind);
  bool symmetrizable(int var_a, int var_b, SymmetryKind kind);
  /// Writes the output's classes under `bound` to `out`.
  void classes(const std::vector<int>& bound, BoundClasses& out);
  /// Sets the variables that the class queries until the next call share
  /// (empty: none). A DAG view builds their cofactors at the first class
  /// query that needs its DAG and frees them at the next call; other views
  /// ignore it.
  void set_base(const std::vector<int>& vars);

  /// A stored answer: the code length, the class count and the class id of
  /// each cut vertex (bit j of u = value of the cut's j-th variable).
  struct CutAnswer {
    int r = 0;
    int ids = 0;
    const std::uint8_t* of_vertex = nullptr;  // valid until the next remember()
  };
  /// The answer stored for `cut` under the coloring seed `seed`, or nullopt.
  std::optional<CutAnswer> answer(const std::vector<int>& cut, std::uint64_t seed);
  /// Stores the code length `r` and the classes of `cut` under `seed` (when
  /// the cut has a key); answers under another seed are forgotten.
  void remember(const std::vector<int>& cut, std::uint64_t seed, int r,
                const BoundClasses& classes);

  /// Queries answered on tables and on the DAG since the last publish; the
  /// pre-check's answers and a reference view's count in neither.
  struct Counts {
    std::uint64_t tt_tests = 0, dag_tests = 0;      // pair tests
    std::uint64_t tt_classes = 0, dag_classes = 0;  // class queries
    std::uint64_t reused = 0;           // class queries answered by answer()
    std::uint64_t base_extensions = 0;  // DAG class queries started from the base
    std::uint64_t dag_nodes = 0;        // DAG nodes built by class queries
  };
  const Counts& counts() const { return counts_; }

 private:
  friend void publish_pair_tests(std::vector<OutputView>& views);
  friend void publish_class_queries(std::vector<OutputView>& views);

  enum class Path { kTables, kDag, kManager };

  /// One stored answer: its cut's key, and the ids of the cut's vertices
  /// from ids_[ids_at] on.
  struct Stored {
    std::uint64_t key;
    std::uint32_t ids_at;
    std::uint16_t ids;
    std::uint8_t r;
  };

  /// The key of a cut: byte j holds one plus the support index of its j-th
  /// variable. 0 (no key) for a cut of more than 8 variables, whose ids may
  /// not fit a byte, or with a variable outside the first 255 of the
  /// support.
  std::uint64_t key_of(const std::vector<int>& cut) const;
  /// The slot of `key` in index_: its answer's, or the empty one it takes.
  std::size_t slot_of(std::uint64_t key) const;
  void forget_answers();
  const tt::IsfTables& tables();
  /// Table variable of manager variable v, or -1 outside the support.
  int table_var(int v);
  bdd::CofactorDag& dag();
  void classes_on_tables(const std::vector<int>& bound, BoundClasses& out);
  void classes_on_dag(const std::vector<int>& bound, BoundClasses& out);

  Isf f_;
  std::vector<int> support_;
  Path path_ = Path::kTables;
  bool check_ = false;
  std::optional<tt::IsfTables> tables_;
  std::optional<bdd::CofactorDag> dag_;
  std::vector<int> base_;    // the variables of set_base
  bool base_built_ = false;  // the DAG holds their cofactors
  // Stored answers; index_ is open-addressed over them (answer + 1, 0 empty).
  std::uint64_t seed_ = 0;
  std::vector<Stored> stored_;
  std::vector<std::uint8_t> ids_;
  std::vector<std::uint32_t> index_;
  Counts counts_;
};

/// One view per function, in order.
std::vector<OutputView> output_views(std::vector<Isf> fns);

/// Adds the views' pair tests since the last call to "sym.tt_tests" and
/// "sym.bdd_tests" (the DAG side) and clears them. symmetrize and
/// symmetry_groups call it once, when they return.
void publish_pair_tests(std::vector<OutputView>& views);
/// The same for the class queries, into "boundset.tt_outputs" and
/// "boundset.bdd_outputs", and for the reused answers, the DAG queries
/// started from a base and the DAG nodes the queries built, into
/// "boundset.reused_outputs", "boundset.base_extensions" and
/// "boundset.dag_nodes"; the bound-set search calls it when it returns.
void publish_class_queries(std::vector<OutputView>& views);

/// Partition of `vars` into maximal classes such that every output is
/// NE-symmetric (as a specification) in every pair within a class.
/// Exchange symmetry is transitive, so the classes are well defined.
/// Singleton classes are included.
std::vector<std::vector<int>> symmetry_groups(std::vector<OutputView>& views,
                                              const std::vector<int>& vars);

}  // namespace mfd
