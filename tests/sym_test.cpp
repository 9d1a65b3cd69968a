#include <gtest/gtest.h>

#include "circuits/circuits.h"
#include "sym/minimize.h"
#include "sym/symmetrize.h"
#include "sym/symmetry.h"
#include "testlib.h"
#include "util/rng.h"

namespace mfd {
namespace {

using bdd::Bdd;
using bdd::Manager;

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
  const SymmetrizeStats stats = symmetrize(fns, {0, 1, 2});
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
  const SymmetrizeStats stats = symmetrize(fns, {0, 1, 2}, opts);
  EXPECT_EQ(stats.ne_applied + stats.e_applied, 0);
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
    symmetrize(fns, {0, 1, 2, 3, 4});
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
  const auto groups = symmetry_groups(fns, {0, 1, 2, 3, 4});
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 5u);
}

TEST(SymmetryGroups, AdderGroupsOperandPairs) {
  // s = a + b: every output is symmetric in (a_i, b_i) but not across weights.
  Manager m(6);
  const circuits::Benchmark bench = circuits::adder(m, 3);
  std::vector<Isf> fns;
  for (const Bdd& f : bench.outputs) fns.push_back(Isf::completely_specified(f));
  const auto groups = symmetry_groups(fns, {0, 1, 2, 3, 4, 5});
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
  const auto groups = symmetry_groups(m, {f0.id(), f1.id()}, {0, 1, 2});
  ASSERT_EQ(groups.size(), 2u);  // {0,1} and {2}
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
  const auto groups = symmetry_groups(fns, {0, 1, 2, 3, 4, 5, 6, 7});
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

}  // namespace
}  // namespace mfd
