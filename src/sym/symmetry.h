// Symmetry detection for (incompletely specified) Boolean functions.
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
// The flow's pair scans (symmetrize, symmetry_groups) go through
// SymmetryTester, which answers the same questions exactly without building
// a cofactor there; the free tests stay as its reference.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bdd/cofactor_dag.h"
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

/// One ISF prepared for many pair tests. is_symmetric and symmetrizable
/// return exactly what isf_is_symmetric and symmetrizable return:
///  * support pre-check: with neither variable in the support the pair is
///    symmetric; with exactly one it is not symmetric as a specification;
///  * an ISF of at most tt::kMaxVars support variables is tested on its on-
///    and care-set tables over the support (built on the first test that
///    needs them), each compared with its mirror image: swap_vars(a, b) for
///    NE, plus flip_var of both variables for E, and flip_var of the one
///    variable in the support when only one is;
///  * a wider ISF is tested on its cofactor DAG (bdd/cofactor_dag.h, built
///    on the first test that needs it): the on- and care-set are walked
///    under the pair's two assignments, which allocates nothing and stops at
///    the first difference or conflict.
/// Under the cache's cross-check mode (MFD_CACHE_CHECK=1) every answer is
/// recomputed by the free BDD tests, and a mismatch aborts.
class SymmetryTester {
 public:
  explicit SymmetryTester(Isf f);

  /// Replaces the function (e.g. by its make_symmetric result); support and
  /// tables are recomputed, the test counts kept.
  void reset(Isf f);

  bool is_symmetric(int var_a, int var_b, SymmetryKind kind);
  bool symmetrizable(int var_a, int var_b, SymmetryKind kind);

  /// True iff the tests run on truth tables (support <= tt::kMaxVars).
  bool on_tables() const { return on_tables_; }
  /// Tests answered on tables and on the DAG; pre-check answers count in
  /// neither.
  std::uint64_t tt_tests() const { return tt_tests_; }
  std::uint64_t bdd_tests() const { return bdd_tests_; }

 private:
  bool in_support(int v) const;
  /// Table variable of manager variable v, or -1 outside the support;
  /// builds the tables on first use.
  int table_var(int v);
  /// The DAG of f, built on first use.
  bdd::CofactorDag& dag();

  Isf f_;
  std::vector<int> support_;  // sorted
  bool on_tables_ = false;
  bool check_ = false;
  std::optional<tt::IsfTables> tables_;
  std::optional<bdd::CofactorDag> dag_;
  tt::TruthTable on_mirror_, care_mirror_;  // scratch
  std::uint64_t tt_tests_ = 0;
  std::uint64_t bdd_tests_ = 0;
};

/// Adds the testers' test counts to "sym.tt_tests" and "sym.bdd_tests".
void publish_test_counts(const std::vector<SymmetryTester>& testers);

/// Partition of `vars` into maximal classes such that every listed function
/// is NE-symmetric (as a specification) in every pair within a class.
/// Exchange symmetry is transitive, so the classes are well defined.
/// Singleton classes are included. Tests through one SymmetryTester per
/// function and publishes their test counts.
std::vector<std::vector<int>> symmetry_groups(const std::vector<Isf>& fns,
                                              const std::vector<int>& vars);

}  // namespace mfd
