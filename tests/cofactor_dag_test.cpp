// Differential tests of the scratch cofactor DAG (bdd/cofactor_dag.h): its
// cofactor classes, conflict answers and pair-symmetry walks against the
// shared manager's cofactor_table, Isf::compatible_with and BDD symmetry
// tests, on ISFs widened past tt::kMaxVars variables by a parity, in a
// scrambled variable order that has been sifted, also for candidates that
// start from a base; and the promise that an output view on the DAG creates
// no node in the shared manager.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "bdd/cofactor_dag.h"
#include "cache/cache.h"
#include "decomp/boundset.h"
#include "decomp/compat.h"
#include "obs/obs.h"
#include "sym/symmetry.h"
#include "testlib.h"
#include "tt/tt.h"
#include "util/rng.h"

namespace mfd {
namespace {

using bdd::Bdd;
using bdd::CofactorDag;
using bdd::Manager;
using Id = CofactorDag::Id;

constexpr int kParityVars = 17;
constexpr SymmetryKind kKinds[] = {SymmetryKind::kNonequivalence, SymmetryKind::kEquivalence};

/// Variables of a wide spec: n base variables, two in no support, then the
/// parity variables.
int total_vars(int n) { return n + 2 + kParityVars; }

/// A random table over n variables with up to two NE or E symmetries
/// planted in random pairs, so the pair tests see both answers.
test::Table planted_table(Rng& rng, int n) {
  test::Table t = test::random_table(rng, n);
  for (int plant = rng.range(0, 2); plant > 0; --plant) {
    const int i = rng.range(0, n - 1);
    const int j = (i + rng.range(1, n - 1)) % n;
    const std::size_t bi = std::size_t{1} << i, bj = std::size_t{1} << j;
    const bool ne = rng.flip();
    for (std::size_t x = 0; x < t.size(); ++x)
      if ((x & bi) != 0 && ((x & bj) == 0) == ne) t[x] = t[x ^ bi ^ bj];
  }
  return t;
}

/// A random ISF over the base variables whose on-set is XORed with the
/// parity of the parity variables. Care shapes: complete, a planted table,
/// or a planted table ANDed with a base literal (so some cofactors have an
/// empty care set and a constant on-set).
Isf wide_isf(Manager& m, Rng& rng, int n) {
  const Bdd on = test::bdd_from_table(m, planted_table(rng, n), n);
  Bdd parity = m.bdd_false();
  for (int v = n + 2; v < total_vars(n); ++v) parity ^= m.var(v);
  Bdd care = m.bdd_true();
  const int shape = rng.range(0, 2);
  if (shape >= 1) care = test::bdd_from_table(m, planted_table(rng, n), n);
  if (shape == 2) care &= m.literal(rng.range(0, n - 1), rng.flip());
  if (care.is_false()) care = m.bdd_true();
  return Isf(on ^ parity, care);
}

/// Scrambles the variable order, then sifts it.
void scramble(Manager& m, Rng& rng) {
  std::vector<int> order(static_cast<std::size_t>(m.num_vars()));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  m.set_order(order);
  m.sift();
}

bool has_complement_edge(const Manager& m, bdd::Edge e) {
  if (m.is_terminal(e)) return false;
  const bdd::Edge r = e.regular();
  return m.node_lo(r).is_complemented() || has_complement_edge(m, m.node_lo(r)) ||
         has_complement_edge(m, m.node_hi(r));
}

/// p distinct variables in a random order; the variables at the top and at
/// the bottom level are each drawn in with probability one half.
std::vector<int> random_bound(const Manager& m, Rng& rng, int p) {
  std::vector<int> bound;
  if (rng.flip()) bound.push_back(m.var_at_level(0));
  if (rng.flip()) bound.push_back(m.var_at_level(m.num_vars() - 1));
  std::vector<int> rest(static_cast<std::size_t>(m.num_vars()));
  std::iota(rest.begin(), rest.end(), 0);
  rng.shuffle(rest);
  for (const int v : rest)
    if (static_cast<int>(bound.size()) < p && std::find(bound.begin(), bound.end(), v) == bound.end())
      bound.push_back(v);
  rng.shuffle(bound);
  return bound;
}

/// Dense ids of the pairs in first-seen order.
std::vector<int> first_seen_classes(const std::vector<std::pair<Id, Id>>& ids) {
  std::vector<std::pair<Id, Id>> seen;
  std::vector<int> out;
  for (const auto& pair : ids) {
    const auto it = std::find(seen.begin(), seen.end(), pair);
    out.push_back(static_cast<int>(it - seen.begin()));
    if (it == seen.end()) seen.push_back(pair);
  }
  return out;
}

TEST(CofactorDag, ClassesAndConflictsMatchTheManager) {
  Rng rng(101);
  int constant = 0, outside = 0, top = 0, bottom = 0, conflicts = 0, compatible = 0;
  // Base candidates by where the added variable sits: above, between and
  // below the base's levels, and outside the support.
  int added[4] = {}, from_base = 0;
  bool complemented = false;
  for (int spec = 0; spec < 24; ++spec) {
    const int n = rng.range(3, 7);
    Manager m(total_vars(n));
    const Isf f = wide_isf(m, rng, n);
    scramble(m, rng);
    const std::vector<int> support = f.support();
    ASSERT_GT(support.size(), static_cast<std::size_t>(tt::kMaxVars));
    complemented = complemented || has_complement_edge(m, f.on().id());
    CofactorDag dag(m, f.on().id(), f.care().id());
    const std::size_t imported = dag.size();
    for (int p = 2; p <= 6; ++p) {
      const std::vector<int> bound = random_bound(m, rng, p);
      std::vector<std::pair<Id, Id>> ids;
      dag.cofactors(bound, ids);
      const CofactorTable table = cofactor_table(f, bound);
      ASSERT_EQ(ids.size(), table.entries.size());
      EXPECT_EQ(first_seen_classes(ids), partition_by_equality(table))
          << "spec " << spec << " p=" << p;
      for (std::size_t a = 0; a < ids.size(); ++a) {
        if (ids[a].first <= CofactorDag::kOne) ++constant;
        for (std::size_t b = a + 1; b < ids.size(); ++b) {
          const bool c = dag.conflict(ids[a].first, ids[a].second, ids[b].first, ids[b].second);
          EXPECT_EQ(c, !table.entries[a].compatible_with(table.entries[b]))
              << "spec " << spec << " p=" << p << " vertices " << a << ", " << b;
          ++(c ? conflicts : compatible);
        }
      }
      for (const int v : bound) {
        if (!std::binary_search(support.begin(), support.end(), v)) ++outside;
        if (m.level_of_var(v) == 0) ++top;
        if (m.level_of_var(v) == m.num_vars() - 1) ++bottom;
      }
      dag.drop_scratch();
      EXPECT_EQ(dag.size(), imported) << "spec " << spec << " p=" << p;
    }

    // Candidates from a base plus one variable, against the manager and
    // against a full query of a DAG without a base.
    CofactorDag full(m, f.on().id(), f.care().id());
    for (int q = 1; q <= 4; ++q) {
      const std::vector<int> base = random_bound(m, rng, q);
      dag.set_base(base);
      const std::size_t with_base = dag.size();
      int lowest = m.num_vars(), highest = -1;
      for (const int v : base) {
        if (!std::binary_search(support.begin(), support.end(), v)) continue;
        lowest = std::min(lowest, m.level_of_var(v));
        highest = std::max(highest, m.level_of_var(v));
      }
      for (int cand = 0; cand < 6; ++cand) {
        int x;
        do x = rng.range(0, m.num_vars() - 1);
        while (std::find(base.begin(), base.end(), x) != base.end());
        std::vector<int> bound = base;
        bound.insert(bound.begin() + rng.range(0, q), x);
        const int level = m.level_of_var(x);
        ++added[!std::binary_search(support.begin(), support.end(), x) ? 3
                : level < lowest                                       ? 0
                : level > highest                                      ? 2
                                                                       : 1];
        std::vector<std::pair<Id, Id>> ids, full_ids;
        if (dag.cofactors(bound, ids)) ++from_base;
        full.cofactors(bound, full_ids);
        const std::vector<int> classes = first_seen_classes(ids);
        EXPECT_EQ(classes, first_seen_classes(full_ids)) << "spec " << spec << " q=" << q;
        EXPECT_EQ(classes, partition_by_equality(cofactor_table(f, bound)))
            << "spec " << spec << " q=" << q;
        dag.drop_scratch();
        full.drop_scratch();
        EXPECT_EQ(dag.size(), with_base) << "spec " << spec << " q=" << q;
      }
      dag.release_base();
      EXPECT_EQ(dag.size(), imported) << "spec " << spec << " q=" << q;
    }
  }
  for (int where = 0; where < 4; ++where) EXPECT_GT(added[where], 0) << "where " << where;
  EXPECT_GT(from_base, 0);
  EXPECT_TRUE(complemented);
  EXPECT_GT(constant, 0) << "no constant cofactor";
  EXPECT_GT(outside, 0) << "no bound variable outside the support";
  EXPECT_GT(top, 0);
  EXPECT_GT(bottom, 0);
  EXPECT_GT(conflicts, 0);
  EXPECT_GT(compatible, 0);
}

TEST(CofactorDag, ConflictMemoDiesWithTheScratchNodes) {
  // Small ISFs and one or two bound variables: consecutive candidates make
  // few scratch nodes, so their ids recur for other functions, and a
  // conflict memo kept past drop_scratch() would answer from the old ones.
  // Every other spec keeps a base of one variable alive, which every
  // candidate holds, so the candidates start from it.
  Rng rng(104);
  for (int spec = 0; spec < 400; ++spec) {
    const int n = 4;
    Manager m(n);
    const Isf f(test::bdd_from_table(m, test::random_table(rng, n), n),
                test::bdd_from_table(m, test::random_table(rng, n), n));
    CofactorDag dag(m, f.on().id(), f.care().id());
    const int base = rng.range(0, n - 1);
    if (spec % 2 == 1) dag.set_base({base});
    for (int cand = 0; cand < 12; ++cand) {
      std::vector<int> bound{spec % 2 == 1 ? base : rng.range(0, n - 1)};
      if (rng.flip()) bound.push_back((bound[0] + rng.range(1, n - 1)) % n);
      std::vector<std::pair<Id, Id>> ids;
      dag.cofactors(bound, ids);
      const CofactorTable table = cofactor_table(f, bound);
      for (std::size_t a = 0; a < ids.size(); ++a)
        for (std::size_t b = a + 1; b < ids.size(); ++b)
          ASSERT_EQ(dag.conflict(ids[a].first, ids[a].second, ids[b].first, ids[b].second),
                    !table.entries[a].compatible_with(table.entries[b]))
              << "spec " << spec << " candidate " << cand;
      dag.drop_scratch();
    }
  }
}

TEST(CofactorDag, ScoresWidenedLargeIsfGraphsLikeTheirTables) {
  // Six bound variables and sparse care sets give large incompatibility
  // graphs, where DSATUR's colors depend on every detail of the graph.
  // ANDing the on-set with a cube of kParityVars more variables leaves the
  // classes and the graph as they are and moves the output to its DAG. (A
  // parity would too, but it turns every conflict where a is off and b on
  // into one where a is on and b off, and so hides a scorer that tests only
  // one direction.)
  Rng rng(105);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = rng.range(7, 9);
    Manager m(n + kParityVars);
    test::Table on_table = test::random_table(rng, n), care_table(on_table.size());
    const std::uint64_t density = static_cast<std::uint64_t>(rng.range(1, 3));
    for (auto&& bit : care_table) bit = rng.below(8) < density;
    const Bdd on = test::bdd_from_table(m, on_table, n);
    const Bdd care = test::bdd_from_table(m, care_table, n);
    Bdd cube = m.bdd_true();
    for (int v = n; v < n + kParityVars; ++v) cube &= m.var(v);
    const std::vector<Isf> narrow{Isf(on, care)}, wide{Isf(on & cube, care)};
    std::vector<OutputView> narrow_views = output_views(narrow);
    std::vector<OutputView> wide_views = output_views(wide);
    ASSERT_FALSE(wide_views[0].on_tables());
    std::vector<int> bound(static_cast<std::size_t>(n));
    std::iota(bound.begin(), bound.end(), 0);
    rng.shuffle(bound);
    bound.resize(6);
    const std::uint64_t seed = rng.below(4) + 1;
    const BoundSetChoice on_tables = evaluate_bound_set(narrow_views, bound, seed);
    const BoundSetChoice on_dag = evaluate_bound_set(wide_views, bound, seed);
    const BoundSetChoice reference = evaluate_bound_set(wide, bound, seed);
    ASSERT_EQ(on_dag.r_per_output, reference.r_per_output) << "trial " << trial;
    ASSERT_EQ(on_dag.r_per_output, on_tables.r_per_output) << "trial " << trial;
    ASSERT_EQ(on_dag.benefit, reference.benefit) << "trial " << trial;
  }
}

TEST(CofactorDag, PairWalksMatchTheBddSymmetryTests) {
  // Pairs over the base variables, the two variables in no support and two
  // parity variables (a parity pair is symmetric in both kinds).
  Rng rng(102);
  int answers[2][2][3] = {};  // [kind of test][answer][variables in the support]
  for (int spec = 0; spec < 40; ++spec) {
    const int n = rng.range(3, 6);
    Manager m(total_vars(n));
    const Isf f = wide_isf(m, rng, n);
    scramble(m, rng);
    const std::vector<int> support = f.support();
    OutputView view(f);
    ASSERT_FALSE(view.on_tables());
    std::vector<int> vars(static_cast<std::size_t>(n + 2));
    std::iota(vars.begin(), vars.end(), 0);
    vars.push_back(n + 2);
    vars.push_back(total_vars(n) - 1);
    for (std::size_t i = 0; i < vars.size(); ++i) {
      for (std::size_t j = i + 1; j < vars.size(); ++j) {
        const int a = vars[i], b = vars[j];
        const int present = static_cast<int>(std::binary_search(support.begin(), support.end(), a)) +
                            static_cast<int>(std::binary_search(support.begin(), support.end(), b));
        for (const SymmetryKind kind : kKinds) {
          const bool sym = isf_is_symmetric(f, a, b, kind);
          const bool szb = symmetrizable(f, a, b, kind);
          EXPECT_EQ(view.is_symmetric(a, b, kind), sym) << "spec " << spec << " (" << a << ", " << b << ")";
          EXPECT_EQ(view.symmetrizable(b, a, kind), szb) << "spec " << spec << " (" << b << ", " << a << ")";
          ++answers[0][sym][present];
          ++answers[1][szb][present];
        }
      }
    }
  }
  // The DAG answered both ways with both variables in the support, and
  // symmetrizable also with one.
  for (int test = 0; test < 2; ++test)
    for (int answer = 0; answer < 2; ++answer)
      EXPECT_GT(answers[test][answer][2], 0) << "test " << test << " answer " << answer;
  EXPECT_GT(answers[1][0][1], 0);
  EXPECT_GT(answers[1][1][1], 0);
}

TEST(CofactorDag, WideSearchAndPairScanMakeNoManagerNode) {
  if (cache::config().cross_check)
    GTEST_SKIP() << "the cross-check mode re-scores on the shared manager";
  Rng rng(103);
  for (int spec = 0; spec < 6; ++spec) {
    const int n = rng.range(4, 7);
    Manager m(total_vars(n));
    const std::vector<Isf> fns{wide_isf(m, rng, n), wide_isf(m, rng, n)};
    scramble(m, rng);
    const std::size_t unique = m.unique_table_size();
    const std::size_t peak = m.stats().peak_nodes;

    obs::reset();
    std::vector<OutputView> views = output_views(fns);
    EXPECT_FALSE(select_bound_set(views, m.current_order(), 4, 1).vars.empty());
    EXPECT_GT(obs::counter_value("boundset.bdd_outputs"), 0u);
    EXPECT_EQ(m.unique_table_size(), unique) << "spec " << spec;
    EXPECT_EQ(m.stats().peak_nodes, peak) << "spec " << spec;

    for (int a = 0; a < m.num_vars(); ++a) {
      for (int b = a + 1; b < m.num_vars(); ++b) {
        for (const SymmetryKind kind : kKinds) {
          (void)views[0].is_symmetric(a, b, kind);
          (void)views[0].symmetrizable(a, b, kind);
        }
      }
    }
    EXPECT_GT(views[0].counts().dag_tests, 0u);
    EXPECT_EQ(m.unique_table_size(), unique) << "spec " << spec;
    EXPECT_EQ(m.stats().peak_nodes, peak) << "spec " << spec;
  }
}

}  // namespace
}  // namespace mfd
