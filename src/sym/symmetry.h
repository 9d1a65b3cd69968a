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
///    candidate's scratch nodes before it returns.
/// A reference view answers every query on the shared manager. Under the
/// cache's cross-check mode (MFD_CACHE_CHECK=1) every other view recomputes
/// each answer there, and a mismatch aborts.
class OutputView {
 public:
  explicit OutputView(Isf f);
  /// The view that answers from the shared manager: the reference.
  static OutputView reference(Isf f);

  /// Replaces the function (e.g. by its make_symmetric result).
  void reset(Isf f);
  /// Drops the tables or DAG; the next query builds them in the manager's
  /// current variable order (a DAG imported before a sift is larger).
  void rebuild();

  const Isf& isf() const { return f_; }
  const std::vector<int>& support() const { return support_; }
  /// True iff the queries run on truth tables.
  bool on_tables() const { return path_ == Path::kTables; }

  bool is_symmetric(int var_a, int var_b, SymmetryKind kind);
  bool symmetrizable(int var_a, int var_b, SymmetryKind kind);
  /// Writes the output's classes under `bound` to `out`.
  void classes(const std::vector<int>& bound, BoundClasses& out);

  /// Queries answered on tables and on the DAG since the last publish; the
  /// pre-check's answers and a reference view's count in neither.
  struct Counts {
    std::uint64_t tt_tests = 0, dag_tests = 0;      // pair tests
    std::uint64_t tt_classes = 0, dag_classes = 0;  // class queries
  };
  const Counts& counts() const { return counts_; }

 private:
  friend void publish_pair_tests(std::vector<OutputView>& views);
  friend void publish_class_queries(std::vector<OutputView>& views);

  enum class Path { kTables, kDag, kManager };

  bool in_support(int v) const;
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
  Counts counts_;
};

/// One view per function, in order.
std::vector<OutputView> output_views(std::vector<Isf> fns);

/// Adds the views' pair tests since the last call to "sym.tt_tests" and
/// "sym.bdd_tests" (the DAG side) and clears them. symmetrize and
/// symmetry_groups call it once, when they return.
void publish_pair_tests(std::vector<OutputView>& views);
/// The same for the class queries, into "boundset.tt_outputs" and
/// "boundset.bdd_outputs"; the bound-set search calls it when it returns.
void publish_class_queries(std::vector<OutputView>& views);

/// Partition of `vars` into maximal classes such that every output is
/// NE-symmetric (as a specification) in every pair within a class.
/// Exchange symmetry is transitive, so the classes are well defined.
/// Singleton classes are included.
std::vector<std::vector<int>> symmetry_groups(std::vector<OutputView>& views,
                                              const std::vector<int>& vars);

}  // namespace mfd
