#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>

#include "circuits/circuits.h"
#include "decomp/boundset.h"
#include "obs/obs.h"
#include "sym/minimize.h"
#include "sym/symmetrize.h"
#include "sym/symmetry.h"
#include "testlib.h"
#include "util/rng.h"

namespace mfd {
namespace {

using bdd::Bdd;
using bdd::Manager;

/// A random table over n variables with up to three planted properties:
/// NE or E symmetry in a pair, or independence of a variable (a later plant
/// may undo an earlier one). Plain random tables are almost never symmetric,
/// so without plants the tests would see one answer only.
test::Table planted_table(Rng& rng, int n) {
  test::Table t = test::random_table(rng, n);
  const int plants = rng.range(0, 3);
  for (int p = 0; p < plants; ++p) {
    const int i = rng.range(0, n - 1);
    const int j = (i + rng.range(1, n - 1)) % n;
    const std::size_t bi = std::size_t{1} << i, bj = std::size_t{1} << j;
    const int what = rng.range(0, 2);
    for (std::size_t x = 0; x < t.size(); ++x) {
      if (what == 0 && (x & bi) != 0 && (x & bj) == 0) t[x] = t[x ^ bi ^ bj];  // NE
      if (what == 1 && (x & bi) != 0 && (x & bj) != 0) t[x] = t[x ^ bi ^ bj];  // E
      if (what == 2 && (x & bi) != 0) t[x] = t[x ^ bi];  // ignores i
    }
  }
  return t;
}

/// A random ISF over variables 0..n-1: complete, or with a care set of
/// planted tables (about half or a quarter of the points).
Isf planted_isf(Manager& m, Rng& rng, int n, bool complete) {
  const Bdd on = test::bdd_from_table(m, planted_table(rng, n), n);
  if (complete) return Isf::completely_specified(on);
  Bdd care = test::bdd_from_table(m, planted_table(rng, n), n);
  if (rng.flip()) care &= test::bdd_from_table(m, planted_table(rng, n), n);
  return Isf(on, care);
}

/// The parity of `count` variables from `first` on.
Bdd parity(Manager& m, int first, int count) {
  Bdd p = m.bdd_false();
  for (int v = first; v < first + count; ++v) p ^= m.var(v);
  return p;
}

/// f with its on-set XORed with `p` inside the care set: the same pair
/// answers over f's variables, and a support past tt::kMaxVars when p has
/// enough variables and the care set is not empty.
Isf widened(const Isf& f, const Bdd& p) { return Isf(f.on() ^ p, f.care()); }

/// symmetrize on one view per function, with the rewritten functions
/// written back to `fns`.
SymmetrizeStats symmetrize_fns(std::vector<Isf>& fns, const std::vector<int>& vars,
                               const SymmetrizeOptions& opts = {}) {
  std::vector<OutputView> views = output_views(fns);
  const SymmetrizeStats stats = symmetrize(views, vars, opts);
  for (std::size_t i = 0; i < fns.size(); ++i) fns[i] = views[i].isf();
  return stats;
}

/// symmetry_groups on one view per function.
std::vector<std::vector<int>> groups_of(const std::vector<Isf>& fns,
                                        const std::vector<int>& vars) {
  std::vector<OutputView> views = output_views(fns);
  return symmetry_groups(views, vars);
}

// ---------------------------------------------------------------------------
// Detection on completely specified functions
// ---------------------------------------------------------------------------

TEST(Symmetry, TotallySymmetricFunction) {
  Manager m(4);
  std::vector<Bdd> bits;
  for (int i = 0; i < 4; ++i) bits.push_back(m.var(i));
  const circuits::Word count = circuits::count_ones(m, bits);
  for (const Bdd& out : count)
    for (int i = 0; i < 4; ++i)
      for (int j = i + 1; j < 4; ++j)
        EXPECT_TRUE(is_symmetric(m, out.id(), i, j, SymmetryKind::kNonequivalence));
}

TEST(Symmetry, AsymmetricPairDetected) {
  Manager m(3);
  const Bdd f = m.var(0) & !m.var(1);  // exchange flips the function
  EXPECT_FALSE(is_symmetric(m, f.id(), 0, 1, SymmetryKind::kNonequivalence));
  // But f IS equivalence-symmetric in (0,1): f(0,0,.) = f(1,1,.) = 0.
  EXPECT_TRUE(is_symmetric(m, f.id(), 0, 1, SymmetryKind::kEquivalence));
}

TEST(Symmetry, XorIsBothNeAndESymmetric) {
  Manager m(2);
  const Bdd f = m.var(0) ^ m.var(1);
  EXPECT_TRUE(is_symmetric(m, f.id(), 0, 1, SymmetryKind::kNonequivalence));
  // E-symmetry: f(0,0) = 0 = f(1,1).
  EXPECT_TRUE(is_symmetric(m, f.id(), 0, 1, SymmetryKind::kEquivalence));
}

TEST(Symmetry, ExhaustiveAgainstTableDefinition) {
  Rng rng(41);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = rng.range(2, 5);
    Manager m(n);
    const auto t = test::random_table(rng, n);
    const Bdd f = test::bdd_from_table(m, t, n);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        // NE: swapping bits i and j never changes the value.
        bool ne = true, e = true;
        for (std::size_t idx = 0; idx < t.size(); ++idx) {
          const bool bi = (idx >> i) & 1, bj = (idx >> j) & 1;
          std::size_t swapped = idx & ~((std::size_t{1} << i) | (std::size_t{1} << j));
          if (bi) swapped |= std::size_t{1} << j;
          if (bj) swapped |= std::size_t{1} << i;
          if (t[idx] != t[swapped]) ne = false;
          // E: complementing both bits never changes the value.
          const std::size_t flipped = idx ^ (std::size_t{1} << i) ^ (std::size_t{1} << j);
          if (bi == bj && t[idx] != t[flipped]) e = false;
        }
        EXPECT_EQ(is_symmetric(m, f.id(), i, j, SymmetryKind::kNonequivalence), ne);
        EXPECT_EQ(is_symmetric(m, f.id(), i, j, SymmetryKind::kEquivalence), e);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Symmetrizability and make_symmetric on ISFs
// ---------------------------------------------------------------------------

TEST(Symmetrize, CompleteFunctionOnlyIfAlreadySymmetric) {
  Manager m(3);
  const Isf sym = Isf::completely_specified(m.var(0) ^ m.var(1));
  const Isf asym = Isf::completely_specified(m.var(0) & !m.var(1));
  EXPECT_TRUE(symmetrizable(sym, 0, 1, SymmetryKind::kNonequivalence));
  EXPECT_FALSE(symmetrizable(asym, 0, 1, SymmetryKind::kNonequivalence));
}

TEST(Symmetrize, MakeSymmetricProducesSymmetricExtension) {
  Rng rng(43);
  int made = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 4;
    Manager m(n);
    const Bdd on = test::bdd_from_table(m, test::random_table(rng, n), n);
    const Bdd care = test::bdd_from_table(m, test::random_table(rng, n), n);
    const Isf f(on & care, care);
    for (const auto kind : {SymmetryKind::kNonequivalence, SymmetryKind::kEquivalence}) {
      if (!symmetrizable(f, 0, 1, kind)) continue;
      ++made;
      const Isf g = make_symmetric(f, 0, 1, kind);
      EXPECT_TRUE(isf_is_symmetric(g, 0, 1, kind));
      // Only adds information: g extends f.
      EXPECT_TRUE((f.care() & !g.care()).is_false());
      EXPECT_TRUE(f.admits(g.extension_zero()) || !g.is_completely_specified());
      // Wherever f cared, g agrees.
      EXPECT_TRUE(((f.on() ^ g.on()) & f.care()).is_false());
    }
  }
  EXPECT_GT(made, 10);  // the loop must actually exercise the path
}

TEST(Symmetrize, GreedyLoopCreatesSymmetries) {
  // A function with assignable don't cares: on = x0 & !x1 outside care,
  // care misses exactly the conflicting points.
  Manager m(3);
  const Bdd x0 = m.var(0), x1 = m.var(1), x2 = m.var(2);
  // f cares only where x0 == x1; there it equals x2. Any pair symmetry in
  // (x0, x1) is achievable.
  std::vector<Isf> fns{Isf(x2 & !(x0 ^ x1), !(x0 ^ x1))};
  const SymmetrizeStats stats = symmetrize_fns(fns, {0, 1, 2});
  EXPECT_GT(stats.ne_applied + stats.e_applied, 0);
  EXPECT_TRUE(isf_is_symmetric(fns[0], 0, 1, SymmetryKind::kNonequivalence));
}

TEST(Symmetrize, RespectsDisabledKinds) {
  Manager m(3);
  const Bdd x0 = m.var(0), x1 = m.var(1), x2 = m.var(2);
  std::vector<Isf> fns{Isf(x2 & !(x0 ^ x1), !(x0 ^ x1))};
  SymmetrizeOptions opts;
  opts.enable_nonequivalence = false;
  opts.enable_equivalence = false;
  const SymmetrizeStats stats = symmetrize_fns(fns, {0, 1, 2}, opts);
  EXPECT_EQ(stats.ne_applied + stats.e_applied, 0);
}

TEST(Symmetrize, TieBreakIsLexicographicPastIndex1000) {
  // Each output cares about three points of its pair (a, b): 00 -> 0,
  // 10 -> 1, 11 -> 1. NE(0, 1002), NE(1, 2) and NE(2, 1002) all tie on every
  // key but the tie break; a key of -(a * 1000 + b) gave the first two the
  // same value -1002. The lexicographically smallest pair must go first.
  Manager m(1003);
  auto three_points = [&](int a, int b) {
    return Isf(m.var(a), m.var(a) | !m.var(b));
  };
  std::vector<Isf> fns{three_points(0, 1002), three_points(1, 2)};
  const std::vector<Isf> before = fns;
  SymmetrizeOptions opts;
  opts.max_applications = 1;
  // Candidates are generated in `vars` order, so (1, 2) comes first.
  const SymmetrizeStats stats = symmetrize_fns(fns, {1, 2, 0, 1002}, opts);
  EXPECT_EQ(stats.ne_applied, 1);
  EXPECT_TRUE(isf_is_symmetric(fns[0], 0, 1002, SymmetryKind::kNonequivalence));
  EXPECT_EQ(fns[1], before[1]);
}

TEST(Symmetrize, AssignmentPreservesCare) {
  // Property over random ISFs: after the full greedy loop, every output
  // still agrees with the original wherever the original cared.
  Rng rng(47);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 5;
    Manager m(n);
    std::vector<Isf> fns;
    std::vector<Isf> originals;
    for (int o = 0; o < 2; ++o) {
      const Bdd on = test::bdd_from_table(m, test::random_table(rng, n), n);
      const Bdd care = test::bdd_from_table(m, test::random_table(rng, n), n);
      fns.emplace_back(on & care, care);
      originals.push_back(fns.back());
    }
    symmetrize_fns(fns, {0, 1, 2, 3, 4});
    for (int o = 0; o < 2; ++o) {
      EXPECT_TRUE(((originals[o].on() ^ fns[o].on()) & originals[o].care()).is_false());
      EXPECT_TRUE((originals[o].care() & !fns[o].care()).is_false());
    }
  }
}

// ---------------------------------------------------------------------------
// Symmetry groups
// ---------------------------------------------------------------------------

TEST(SymmetryGroups, TotallySymmetricGivesOneGroup) {
  Manager m(5);
  std::vector<Bdd> bits;
  for (int i = 0; i < 5; ++i) bits.push_back(m.var(i));
  circuits::Word count = circuits::count_ones(m, bits);
  std::vector<Isf> fns;
  for (const Bdd& f : count) fns.push_back(Isf::completely_specified(f));
  const auto groups = groups_of(fns, {0, 1, 2, 3, 4});
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 5u);
}

TEST(SymmetryGroups, AdderGroupsOperandPairs) {
  // s = a + b: every output is symmetric in (a_i, b_i) but not across weights.
  Manager m(6);
  const circuits::Benchmark bench = circuits::adder(m, 3);
  std::vector<Isf> fns;
  for (const Bdd& f : bench.outputs) fns.push_back(Isf::completely_specified(f));
  const auto groups = groups_of(fns, {0, 1, 2, 3, 4, 5});
  // Groups must be exactly {a_i, b_i} for i = 0, 1, 2 (a_i is var i, b_i is var 3+i).
  ASSERT_EQ(groups.size(), 3u);
  for (const auto& g : groups) {
    ASSERT_EQ(g.size(), 2u);
    EXPECT_EQ(g[0] % 3, g[1] % 3);
  }
}

TEST(SymmetryGroups, MultiOutputIntersectsSymmetries) {
  Manager m(3);
  // f0 symmetric in all pairs, f1 only in (0,1).
  const Bdd f0 = m.var(0) ^ m.var(1) ^ m.var(2);
  const Bdd f1 = (m.var(0) ^ m.var(1)) & m.var(2);
  const auto groups =
      groups_of({Isf::completely_specified(f0), Isf::completely_specified(f1)}, {0, 1, 2});
  ASSERT_EQ(groups.size(), 2u);  // {0,1} and {2}
}

// ---------------------------------------------------------------------------
// The view's two symmetry paths: truth tables (support <= 16) and cofactor
// DAGs (wider), against the BDD tests
// ---------------------------------------------------------------------------

TEST(SymmetryTester, PairAnswersMatchTheBddTests) {
  // Every pair over n + 2 variables (the last two are in no support), both
  // kinds, both argument orders on the tables; the same ISF widened past 16
  // variables takes the view's DAG path.
  constexpr int kParityVars = 17;
  Rng rng(67);
  int answers[2][2] = {};  // [is_symmetric][symmetrizable]
  int pairs_by_support[3] = {};  // pairs with 0, 1, 2 variables in the support
  std::uint64_t tt_tests = 0, bdd_tests = 0;
  for (int trial = 0; trial < 308; ++trial) {
    const int n = 2 + trial % 11;
    const int vars = n + 2;
    Manager m(vars + kParityVars);
    const Isf f = planted_isf(m, rng, n, trial % 3 == 0);
    const Isf wide = widened(f, parity(m, vars, kParityVars));
    OutputView narrow_view(f), wide_view(wide);
    ASSERT_TRUE(narrow_view.on_tables());
    ASSERT_EQ(wide_view.on_tables(), f.care().is_false());
    const std::vector<int> support = f.support();
    for (int a = 0; a < vars; ++a) {
      for (int b = a + 1; b < vars; ++b) {
        ++pairs_by_support[std::count(support.begin(), support.end(), a) +
                           std::count(support.begin(), support.end(), b)];
        for (const auto kind : {SymmetryKind::kNonequivalence, SymmetryKind::kEquivalence}) {
          const bool sym = isf_is_symmetric(f, a, b, kind);
          const bool szb = symmetrizable(f, a, b, kind);
          ++answers[sym][szb];
          for (const auto& [x, y] : {std::pair(a, b), std::pair(b, a)}) {
            EXPECT_EQ(narrow_view.is_symmetric(x, y, kind), sym) << "trial " << trial;
            EXPECT_EQ(narrow_view.symmetrizable(x, y, kind), szb) << "trial " << trial;
          }
          EXPECT_EQ(wide_view.is_symmetric(a, b, kind), sym) << "trial " << trial;
          EXPECT_EQ(wide_view.symmetrizable(a, b, kind), szb) << "trial " << trial;
        }
      }
    }
    EXPECT_EQ(narrow_view.counts().dag_tests, 0u);
    tt_tests += narrow_view.counts().tt_tests;
    bdd_tests += wide_view.counts().dag_tests;
  }
  // Every kind of answer and of pair occurred, on both paths.
  EXPECT_GT(answers[1][1], 0);
  EXPECT_GT(answers[0][1], 0);
  EXPECT_GT(answers[0][0], 0);
  EXPECT_EQ(answers[1][0], 0);  // symmetric implies symmetrizable
  for (const int count : pairs_by_support) EXPECT_GT(count, 0);
  EXPECT_GT(tt_tests, 0u);
  EXPECT_GT(bdd_tests, 0u);
}

TEST(SymmetryTester, TableAndBddRunsGiveTheSameResults) {
  // symmetry_groups, symmetrize and symmetry_groups again on one view
  // vector, over random multi-output ISFs, once as they are (truth tables)
  // and once widened by the parity of 17 extra variables (DAGs): the same
  // groups and stats, equal care sets, and on-sets equal up to the parity.
  constexpr int kParityVars = 17;
  Rng rng(71);
  std::uint64_t narrow_tests[2] = {}, wide_tests[2] = {};  // {tt, bdd}
  for (int trial = 0; trial < 24; ++trial) {
    const int n = rng.range(3, 9);
    Manager m(n + kParityVars);
    const Bdd p = parity(m, n, kParityVars);
    std::vector<Isf> narrow, wide;
    const int outputs = rng.range(1, 3);
    for (int o = 0; o < outputs; ++o) {
      narrow.push_back(planted_isf(m, rng, n, rng.range(0, 3) == 0));
      wide.push_back(widened(narrow.back(), p));
    }
    std::vector<int> vars(static_cast<std::size_t>(n));
    std::iota(vars.begin(), vars.end(), 0);

    auto run = [&](std::vector<Isf>& fns, std::uint64_t* tests) {
      obs::reset();
      std::vector<OutputView> views = output_views(fns);
      const auto groups_before = symmetry_groups(views, vars);
      const SymmetrizeStats stats = symmetrize(views, vars);
      const auto groups_after = symmetry_groups(views, vars);
      for (std::size_t o = 0; o < fns.size(); ++o) fns[o] = views[o].isf();
      tests[0] += obs::counter_value("sym.tt_tests");
      tests[1] += obs::counter_value("sym.bdd_tests");
      return std::tuple(groups_before, stats.ne_applied, stats.e_applied, stats.rounds,
                        groups_after);
    };
    EXPECT_EQ(run(narrow, narrow_tests), run(wide, wide_tests)) << "trial " << trial;
    for (int o = 0; o < outputs; ++o) {
      EXPECT_EQ(wide[o].care(), narrow[o].care()) << "trial " << trial;
      EXPECT_EQ(wide[o].on(), widened(narrow[o], p).on()) << "trial " << trial;
    }
  }
  EXPECT_GT(narrow_tests[0], 0u);
  EXPECT_EQ(narrow_tests[1], 0u);
  EXPECT_EQ(wide_tests[0], 0u);
  EXPECT_GT(wide_tests[1], 0u);
}

std::vector<OutputView> reference_views(const std::vector<Isf>& fns) {
  std::vector<OutputView> views;
  for (const Isf& f : fns) views.push_back(OutputView::reference(f));
  return views;
}

TEST(OutputView, OneViewVectorServesTheWholeStep) {
  // A decomposition step's queries on one view vector: symmetrize,
  // symmetry_groups, a symmetric sift after which every view is rebuilt, and
  // the bound-set searches for p and p + 1. Each runs again on reference
  // views, which answer on the shared manager, for narrow ISF sets and for
  // sets widened past 16 variables by a parity, in a scrambled order. The
  // pair answers of views reset by make_symmetric and of views rebuilt after
  // the sift are also compared with the free BDD tests. The searches reuse
  // stored answers on both widths and start DAG queries from a base; the
  // reference views do neither. After both searches, every window of the
  // order and every one-variable exchange of each chosen set is scored again
  // on the same views, mostly from their stored answers, and compared with
  // the reference views field by field: a wrong stored answer shows there
  // even for a candidate that loses the search.
  constexpr int kParityVars = 17;
  Rng rng(73);
  int applied[2] = {};                          // pairs applied: narrow, wide
  std::uint64_t tests[2] = {}, classes[2] = {};  // on tables, on DAGs
  std::uint64_t reused[2] = {}, base_extensions[2] = {};  // narrow, wide
  std::uint64_t rescored[2] = {}, rescored_reused[2] = {};  // narrow, wide
  auto incremental = [] {
    return std::pair(obs::counter_value("boundset.reused_outputs"),
                     obs::counter_value("boundset.base_extensions"));
  };
  auto expect_reference_pairs = [&](std::vector<OutputView>& views,
                                    const std::vector<int>& vars, int trial) {
    for (OutputView& v : views)
      for (std::size_t i = 0; i < vars.size(); ++i)
        for (std::size_t j = i + 1; j < vars.size(); ++j)
          for (const auto kind : {SymmetryKind::kNonequivalence, SymmetryKind::kEquivalence}) {
            EXPECT_EQ(v.is_symmetric(vars[i], vars[j], kind),
                      isf_is_symmetric(v.isf(), vars[i], vars[j], kind))
                << "trial " << trial;
            EXPECT_EQ(v.symmetrizable(vars[i], vars[j], kind),
                      symmetrizable(v.isf(), vars[i], vars[j], kind))
                << "trial " << trial;
          }
  };
  for (int trial = 0; trial < 16; ++trial) {
    const bool wide = trial % 2 == 1;
    const int n = rng.range(5, 8);
    Manager m(n + kParityVars);
    const Bdd p = parity(m, n, kParityVars);
    std::vector<Isf> fns;
    for (int o = rng.range(1, 3); o > 0; --o) {
      const Isf f = planted_isf(m, rng, n, rng.range(0, 3) == 0);
      fns.push_back(wide ? widened(f, p) : f);
    }
    std::vector<int> scrambled = m.current_order();
    rng.shuffle(scrambled);
    m.set_order(scrambled);
    std::vector<int> vars(static_cast<std::size_t>(n));  // the base variables
    std::iota(vars.begin(), vars.end(), 0);

    obs::reset();
    std::vector<OutputView> views = output_views(fns);
    std::vector<OutputView> reference = reference_views(fns);
    const SymmetrizeStats stats = symmetrize(views, vars);
    const SymmetrizeStats reference_stats = symmetrize(reference, vars);
    EXPECT_EQ(std::tuple(stats.ne_applied, stats.e_applied, stats.rounds),
              std::tuple(reference_stats.ne_applied, reference_stats.e_applied,
                         reference_stats.rounds))
        << "trial " << trial;
    applied[wide] += stats.ne_applied + stats.e_applied;
    for (std::size_t o = 0; o < views.size(); ++o)
      EXPECT_EQ(views[o].isf(), reference[o].isf()) << "trial " << trial;
    expect_reference_pairs(views, vars, trial);

    const std::vector<std::vector<int>> groups = symmetry_groups(views, vars);
    EXPECT_EQ(groups, symmetry_groups(reference, vars)) << "trial " << trial;
    m.sift_symmetric(groups, /*max_growth=*/1.2);
    for (OutputView& v : views) v.rebuild();
    expect_reference_pairs(views, vars, trial);

    // The active variables in the sifted level order.
    std::vector<int> order;
    for (const int v : m.current_order())
      if (v < n || wide) order.push_back(v);
    std::vector<std::vector<int>> chosen;
    for (const int bound_size : {4, 5}) {
      const BoundSetChoice got = select_bound_set(views, order, bound_size, 1);
      const auto before = incremental();
      const BoundSetChoice want = select_bound_set(reference, order, bound_size, 1);
      EXPECT_EQ(incremental(), before) << "trial " << trial << " p=" << bound_size;
      EXPECT_EQ(got.vars, want.vars) << "trial " << trial << " p=" << bound_size;
      EXPECT_EQ(got.benefit, want.benefit) << "trial " << trial << " p=" << bound_size;
      EXPECT_EQ(got.sharing_gap, want.sharing_gap) << "trial " << trial;
      EXPECT_EQ(got.r_per_output, want.r_per_output) << "trial " << trial;
      chosen.push_back(got.vars);
    }
    tests[0] += obs::counter_value("sym.tt_tests");
    tests[1] += obs::counter_value("sym.bdd_tests");
    classes[0] += obs::counter_value("boundset.tt_outputs");
    classes[1] += obs::counter_value("boundset.bdd_outputs");
    reused[wide] += incremental().first;
    base_extensions[wide] += incremental().second;

    auto expect_rescored = [&](const std::vector<int>& bound) {
      const BoundSetChoice got = evaluate_bound_set(views, bound, 1);
      const BoundSetChoice want = evaluate_bound_set(reference, bound, 1);
      ::testing::Message where;
      where << "trial " << trial << " bound";
      for (const int v : bound) where << ' ' << v;
      EXPECT_EQ(got.vars, want.vars) << where;
      EXPECT_EQ(got.benefit, want.benefit) << where;
      EXPECT_EQ(got.sharing_gap, want.sharing_gap) << where;
      EXPECT_EQ(got.sum_r, want.sum_r) << where;
      EXPECT_EQ(got.r_per_output, want.r_per_output) << where;
      ++rescored[wide];
    };
    const std::uint64_t reused_before = incremental().first;
    for (const int bound_size : {4, 5})
      for (std::size_t at = 0; at + bound_size <= order.size(); ++at) {
        const auto first = order.begin() + static_cast<std::ptrdiff_t>(at);
        expect_rescored(std::vector<int>(first, first + bound_size));
      }
    for (const std::vector<int>& vars_chosen : chosen)
      for (std::size_t pos = 0; pos < vars_chosen.size(); ++pos)
        for (const int v : order) {
          if (std::find(vars_chosen.begin(), vars_chosen.end(), v) != vars_chosen.end()) continue;
          std::vector<int> move = vars_chosen;
          move[pos] = v;
          expect_rescored(move);
        }
    rescored_reused[wide] += incremental().first - reused_before;
  }
  // Both widths rewrote functions and reused answers, both paths answered
  // both queries, and only the DAGs have a base.
  EXPECT_GT(applied[0], 0);
  EXPECT_GT(applied[1], 0);
  for (int path = 0; path < 2; ++path) {
    EXPECT_GT(tests[path], 0u) << "path " << path;
    EXPECT_GT(classes[path], 0u) << "path " << path;
    EXPECT_GT(reused[path], 0u) << "width " << path;
  }
  EXPECT_EQ(base_extensions[0], 0u);
  EXPECT_GT(base_extensions[1], 0u);
  // The re-scoring served stored answers on both widths.
  for (int width = 0; width < 2; ++width) {
    EXPECT_GT(rescored[width], 0u) << "width " << width;
    EXPECT_GT(rescored_reused[width], 0u) << "width " << width;
  }
}

TEST(OutputView, ClassesMatchTheReferenceFieldByField) {
  // OutputView::classes against bound_classes field by field (of_vertex,
  // ids, conflict rows) for bound sets of 4 to 8 variables in a random
  // order: random ISFs over the bound and 2 to 5 free variables, complete,
  // with half or with a quarter of the points cared for, as they are (truth
  // tables) and widened past 16 variables by a parity (cofactor DAGs, also
  // from a base of all but one bound variable). With enough free variables
  // the cofactors are distinct, so the ids reach 64 (one-word rows, with
  // compatible and conflicting pairs and bit 63 set) and 128 and 256 (rows
  // of 2 and 4 words).
  constexpr int kParityVars = 17;
  Rng rng(79);
  int rows_of_words[5] = {};  // non-complete answers by words per row
  bool bit63 = false, compatible_at_64 = false, conflicting_at_64 = false;
  int trial = 0;
  for (int bound_size = 4; bound_size <= 8; ++bound_size) {
    for (int free = 2; free <= 5; ++free) {
      for (int care = 0; care < 3; ++care, ++trial) {  // complete, 1/2, 1/4
        const int n = bound_size + free;
        Manager m(n + kParityVars);
        const Bdd on = test::bdd_from_table(m, test::random_table(rng, n), n);
        Bdd care_set = m.bdd_true();
        if (care > 0) care_set = test::bdd_from_table(m, test::random_table(rng, n), n);
        if (care > 1) care_set &= test::bdd_from_table(m, test::random_table(rng, n), n);
        const Isf f(on & care_set, care_set);
        const Isf wide = widened(f, parity(m, n, kParityVars));
        std::vector<int> vars(static_cast<std::size_t>(n));
        std::iota(vars.begin(), vars.end(), 0);
        rng.shuffle(vars);
        const std::vector<int> bound(vars.begin(), vars.begin() + bound_size);
        const std::vector<int> base(bound.begin(), bound.end() - 1);

        BoundClasses want, wide_want;
        bound_classes(f, bound, want);
        bound_classes(wide, bound, wide_want);
        OutputView narrow_view(f), wide_view(wide);
        ASSERT_TRUE(narrow_view.on_tables());
        ASSERT_FALSE(wide_view.on_tables());
        BoundClasses got[3];  // tables, DAG, DAG from the base
        narrow_view.classes(bound, got[0]);
        wide_view.classes(bound, got[1]);
        wide_view.set_base(base);
        wide_view.classes(bound, got[2]);
        for (int path = 0; path < 3; ++path) {
          const BoundClasses& reference = path == 0 ? want : wide_want;
          ::testing::Message where;
          where << "trial " << trial << " path " << path;
          EXPECT_EQ(got[path].of_vertex, reference.of_vertex) << where;
          EXPECT_EQ(got[path].ids, reference.ids) << where;
          EXPECT_EQ(got[path].conflicts, reference.conflicts) << where;
        }
        EXPECT_EQ(wide_view.counts().base_extensions, 1u) << "trial " << trial;
        // The parity does not change which cofactors are equal or compatible.
        EXPECT_EQ(wide_want, want) << "trial " << trial;

        if (care == 0) {
          EXPECT_EQ(want.conflicts.num_vertices(), 0) << "trial " << trial;
          continue;
        }
        ASSERT_EQ(want.conflicts.num_vertices(), want.ids) << "trial " << trial;
        ++rows_of_words[want.conflicts.words()];
        if (want.ids != 64) continue;
        const int edges = want.conflicts.num_edges();
        conflicting_at_64 |= edges > 0;
        compatible_at_64 |= edges < 64 * 63 / 2;
        for (int a = 0; a < 64; ++a) bit63 |= (want.conflicts.row(a)[0] >> 63) != 0;
      }
    }
  }
  EXPECT_TRUE(bit63);
  EXPECT_TRUE(compatible_at_64);
  EXPECT_TRUE(conflicting_at_64);
  EXPECT_GT(rows_of_words[1], 0);
  EXPECT_GT(rows_of_words[2], 0);
  EXPECT_GT(rows_of_words[4], 0);
}

TEST(OutputView, ResetForgetsTheStoredAnswers) {
  // A view scores a cut, is reset to another function and scores the same
  // cut again: an answer kept past reset() would score the old function. A
  // rebuild() keeps the answers, which do not depend on the variable order.
  Rng rng(74);
  int differ = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 6;
    Manager m(n);
    const Isf f = planted_isf(m, rng, n, rng.flip());
    const Isf g = planted_isf(m, rng, n, rng.flip());
    const std::vector<int> bound{0, 2, 3, 5};
    std::vector<OutputView> views = output_views({f});
    const BoundSetChoice first = evaluate_bound_set(views, bound, 1);
    views[0].rebuild();
    obs::reset();
    EXPECT_EQ(evaluate_bound_set(views, bound, 1), first) << "trial " << trial;
    EXPECT_EQ(obs::counter_value("boundset.reused_outputs"), 1u) << "trial " << trial;

    views[0].reset(g);
    const BoundSetChoice want = evaluate_bound_set(std::vector<Isf>{g}, bound, 1);
    EXPECT_EQ(evaluate_bound_set(views, bound, 1), want) << "trial " << trial;
    if (want.r_per_output != first.r_per_output) ++differ;
  }
  EXPECT_GT(differ, 0);
}

TEST(SymmetricSift, GroupsAdjacentAndFunctionPreserved) {
  // The decomposition flow's variable-order seed: symmetry groups, then one
  // group-sifting pass over them.
  Rng rng(53);
  Manager m(8);
  std::vector<Bdd> bits;
  for (int i : {1, 3, 6}) bits.push_back(m.var(i));
  const circuits::Word count = circuits::count_ones(m, bits);
  const Bdd noise = test::bdd_from_table(m, test::random_table(rng, 8), 8);
  std::vector<Isf> fns{Isf::completely_specified(count[0] & noise)};
  const auto t_before = test::table_from_bdd(m, fns[0].on().id(), 8);
  const auto groups = groups_of(fns, {0, 1, 2, 3, 4, 5, 6, 7});
  m.sift_symmetric(groups, /*max_growth=*/1.2);
  EXPECT_EQ(test::table_from_bdd(m, fns[0].on().id(), 8), t_before);
  for (const auto& g : groups) {
    int lo = 8, hi = -1;
    for (int v : g) {
      lo = std::min(lo, m.level_of_var(v));
      hi = std::max(hi, m.level_of_var(v));
    }
    EXPECT_EQ(hi - lo + 1, static_cast<int>(g.size()));
  }
}

TEST(MinimizeRobdd, ShrinksSymmetrizableFunctions) {
  // f cares only where x0 == x1 and there equals a function of the rest:
  // symmetrization + restrict should beat extension-zero decisively.
  Manager m(6);
  const Bdd eq = !(m.var(0) ^ m.var(1));
  Rng rng(59);
  const Bdd core = test::bdd_from_table(m, test::random_table(rng, 6), 6);
  const Isf f(core & eq, eq);
  const MinimizeResult r = minimize_robdd_size(f);
  EXPECT_TRUE(f.admits(r.function));
  EXPECT_LE(r.size_after, r.size_before);
}

TEST(MinimizeRobdd, CompletelySpecifiedIsAFixpoint) {
  Manager m(4);
  const Bdd f = (m.var(0) & m.var(1)) ^ m.var(3);
  const MinimizeResult r = minimize_robdd_size(Isf::completely_specified(f));
  EXPECT_EQ(r.function, f);
  EXPECT_EQ(r.symmetries_created, 0);
}

TEST(MinimizeRobdd, AlwaysAdmissible) {
  Rng rng(61);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = rng.range(3, 7);
    Manager m(n);
    const Bdd on = test::bdd_from_table(m, test::random_table(rng, n), n);
    const Bdd care = test::bdd_from_table(m, test::random_table(rng, n), n);
    const Isf f(on & care, care);
    const MinimizeResult r = minimize_robdd_size(f);
    EXPECT_TRUE(f.admits(r.function)) << "trial " << trial;
  }
}

TEST(MinimizeRobdd, SiftGateCountsOnlyLiveNodes) {
  // A dropped BDD of more than 200 000 nodes is garbage: it must not keep
  // the closing symmetric sift from reordering the result.
  constexpr int kPairs = 17;
  Manager m(2 * kPairs + 6);
  {
    // OR of x_i & x_{i+17}: the order keeps every pair apart, so the BDD
    // remembers which of x_0..x_16 are set (~2^18 nodes).
    Bdd big = m.bdd_false();
    for (int i = 0; i < kPairs; ++i) big |= m.var(i) & m.var(i + kPairs);
    ASSERT_GT(m.live_node_count(), 200000u);
  }
  // The same shape over three pairs of the last six variables: sifting the
  // pairs together shrinks it.
  const int v = 2 * kPairs;
  Bdd f = m.bdd_false();
  for (int i = 0; i < 3; ++i) f |= m.var(v + i) & m.var(v + 3 + i);
  const MinimizeResult r = minimize_robdd_size(Isf::completely_specified(f));
  EXPECT_EQ(r.function, f);
  EXPECT_LT(r.size_after, r.size_before);
}

}  // namespace
}  // namespace mfd
