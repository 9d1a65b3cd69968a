// Dynamic reordering is the most delicate part of the BDD substrate: every
// test here verifies *functional* preservation through the truth-table
// oracle, not just absence of crashes.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "bdd/bdd.h"
#include "testlib.h"
#include "util/rng.h"

namespace mfd {
namespace {

using bdd::Bdd;
using bdd::Manager;
using test::Table;

TEST(Reorder, SwapAdjacentPreservesFunction) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = rng.range(2, 8);
    Manager m(n);
    const Table t = test::random_table(rng, n);
    const Bdd f = test::bdd_from_table(m, t, n);
    const int lev = rng.range(0, n - 2);
    m.swap_adjacent_levels(lev);
    EXPECT_EQ(test::table_from_bdd(m, f.id(), n), t) << "n=" << n << " lev=" << lev;
    // Swap back restores the original order.
    m.swap_adjacent_levels(lev);
    EXPECT_EQ(test::table_from_bdd(m, f.id(), n), t);
  }
}

TEST(Reorder, SwapUpdatesOrderBookkeeping) {
  Manager m(4);
  m.swap_adjacent_levels(1);
  EXPECT_EQ(m.var_at_level(1), 2);
  EXPECT_EQ(m.var_at_level(2), 1);
  EXPECT_EQ(m.level_of_var(1), 2);
  EXPECT_EQ(m.level_of_var(2), 1);
  EXPECT_EQ(m.current_order(), (std::vector<int>{0, 2, 1, 3}));
}

TEST(Reorder, SwapPreservesMultipleRoots) {
  Rng rng(2);
  const int n = 6;
  Manager m(n);
  std::vector<Table> tables;
  std::vector<Bdd> fns;
  for (int i = 0; i < 5; ++i) {
    tables.push_back(test::random_table(rng, n));
    fns.push_back(test::bdd_from_table(m, tables.back(), n));
  }
  for (int lev = 0; lev < n - 1; ++lev) m.swap_adjacent_levels(lev);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(test::table_from_bdd(m, fns[i].id(), n), tables[i]) << "root " << i;
}

TEST(Reorder, SetOrderReachesExactOrder) {
  Rng rng(3);
  const int n = 7;
  Manager m(n);
  const Table t = test::random_table(rng, n);
  const Bdd f = test::bdd_from_table(m, t, n);
  std::vector<int> order{6, 2, 5, 0, 3, 1, 4};
  m.set_order(order);
  EXPECT_EQ(m.current_order(), order);
  EXPECT_EQ(test::table_from_bdd(m, f.id(), n), t);
}

TEST(Reorder, OperationsStayCorrectAfterReorder) {
  Rng rng(4);
  const int n = 6;
  Manager m(n);
  const Table ta = test::random_table(rng, n);
  const Table tb = test::random_table(rng, n);
  const Bdd a = test::bdd_from_table(m, ta, n);
  const Bdd b = test::bdd_from_table(m, tb, n);
  m.set_order({5, 4, 3, 2, 1, 0});
  const Table got = test::table_from_bdd(m, (a & b).id(), n);
  for (std::size_t i = 0; i < ta.size(); ++i) EXPECT_EQ(got[i], ta[i] && tb[i]);
  const Table got_x = test::table_from_bdd(m, (a ^ b).id(), n);
  for (std::size_t i = 0; i < ta.size(); ++i) EXPECT_EQ(got_x[i], ta[i] != tb[i]);
}

TEST(Reorder, SiftPreservesFunctions) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = rng.range(3, 9);
    Manager m(n);
    const Table t = test::random_table(rng, n);
    const Bdd f = test::bdd_from_table(m, t, n);
    m.sift();
    EXPECT_EQ(test::table_from_bdd(m, f.id(), n), t) << "trial " << trial;
  }
}

TEST(Reorder, SiftShrinksOrderSensitiveFunction) {
  // f = x0&x3 | x1&x4 | x2&x5 in the interleaving-hostile order
  // x0<x1<x2<x3<x4<x5 has exponential width; sifting must find a pairing
  // order and shrink it decisively.
  Manager m(6);
  const Bdd f = (m.var(0) & m.var(3)) | (m.var(1) & m.var(4)) | (m.var(2) & m.var(5));
  Bdd keep = f;  // hold a reference
  const std::size_t before = m.dag_size(f.id());
  m.sift();
  const std::size_t after = m.dag_size(f.id());
  EXPECT_LT(after, before);
  EXPECT_LE(after, 10u);  // optimal order gives 8 nodes incl. terminals
}

TEST(Reorder, SiftReportsLiveCount) {
  Manager m(6);
  const Bdd f = (m.var(0) & m.var(3)) | (m.var(1) & m.var(4)) | (m.var(2) & m.var(5));
  const std::size_t reported = m.sift();
  EXPECT_EQ(reported, m.live_node_count());
}

TEST(Reorder, SymmetricSiftKeepsGroupsAdjacent) {
  Rng rng(6);
  const int n = 8;
  Manager m(n);
  const Table t = test::random_table(rng, n);
  const Bdd f = test::bdd_from_table(m, t, n);
  const std::vector<std::vector<int>> groups{{1, 4, 6}, {0, 7}};
  m.sift_symmetric(groups);
  EXPECT_EQ(test::table_from_bdd(m, f.id(), n), t);
  for (const auto& g : groups) {
    int lo = n, hi = -1;
    for (int v : g) {
      lo = std::min(lo, m.level_of_var(v));
      hi = std::max(hi, m.level_of_var(v));
    }
    EXPECT_EQ(hi - lo + 1, static_cast<int>(g.size()))
        << "group not adjacent after symmetric sifting";
  }
}

TEST(Reorder, SymmetricSiftShrinksWithGroups) {
  // Same order-sensitive function; groups {0,3},{1,4},{2,5} must end up
  // adjacent, which is exactly the optimal interleaving.
  Manager m(6);
  const Bdd f = (m.var(0) & m.var(3)) | (m.var(1) & m.var(4)) | (m.var(2) & m.var(5));
  m.sift_symmetric({{0, 3}, {1, 4}, {2, 5}});
  EXPECT_LE(m.dag_size(f.id()), 10u);
}

TEST(Reorder, GcDuringSiftCyclesIsSafe) {
  Rng rng(7);
  const int n = 7;
  Manager m(n);
  std::vector<Table> tables;
  std::vector<Bdd> fns;
  for (int i = 0; i < 3; ++i) {
    tables.push_back(test::random_table(rng, n));
    fns.push_back(test::bdd_from_table(m, tables.back(), n));
  }
  for (int round = 0; round < 3; ++round) {
    m.sift();
    m.garbage_collect();
    const Bdd combined = (fns[0] & fns[1]) | fns[2];
    for (std::size_t i = 0; i < tables[0].size(); ++i) {
      std::vector<bool> a(static_cast<std::size_t>(n));
      for (int v = 0; v < n; ++v) a[v] = (i >> v) & 1;
      EXPECT_EQ(m.eval(combined.id(), a),
                (tables[0][i] && tables[1][i]) || tables[2][i]);
    }
  }
}

/// BDD of a truth table whose index bit k is the value of x_vars[k]
/// (Shannon expansion, lowest table variable first).
Bdd bdd_over_vars(Manager& m, const Table& t, const std::vector<int>& vars) {
  std::vector<Bdd> fs;
  for (const bool bit : t) fs.push_back(m.constant(bit));
  for (const int v : vars) {
    const Bdd x = m.var(v);
    for (std::size_t j = 0; j < fs.size() / 2; ++j)
      fs[j] = (x & fs[2 * j + 1]) | ((!x) & fs[2 * j]);
    fs.resize(fs.size() / 2);
  }
  return fs.front();
}

TEST(Reorder, SiftSkipsVariablesWithoutNodes) {
  // A variable without nodes changes no node as it moves, so sifting it is
  // a round trip. Random functions over 10 variables placed at random
  // levels among 200 unused ones must end in the same relative order as in
  // a manager without the unused variables, and the swaps must be paid for
  // the used variables only: each sifts down, up and back at most once
  // through the other n - 1 levels, so at most 3 (n - 1) swaps apiece
  // (sifting every variable costs up to ~88 000 swaps here).
  constexpr int kUsed = 10, kTotal = kUsed + 200;
  for (int seed = 0; seed < 50; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 3);
    std::vector<int> all(kTotal);
    std::iota(all.begin(), all.end(), 0);
    rng.shuffle(all);
    std::vector<int> used(all.begin(), all.begin() + kUsed);
    std::sort(used.begin(), used.end());
    std::vector<int> local(kUsed);
    std::iota(local.begin(), local.end(), 0);

    Manager narrow(kUsed), wide(kTotal);
    std::vector<Table> tables;
    std::vector<Bdd> keep;
    for (int i = 0; i < 3; ++i) {
      tables.push_back(test::random_table(rng, kUsed));
      keep.push_back(bdd_over_vars(narrow, tables.back(), local));
      keep.push_back(bdd_over_vars(wide, tables.back(), used));
    }
    narrow.sift_symmetric({});
    wide.sift_symmetric({});

    std::vector<int> relative;  // wide's used variables as narrow's indices
    for (const int v : wide.current_order()) {
      const auto it = std::find(used.begin(), used.end(), v);
      if (it != used.end()) relative.push_back(static_cast<int>(it - used.begin()));
    }
    EXPECT_EQ(relative, narrow.current_order()) << "seed " << seed;
    EXPECT_LE(wide.stats().reorder_swaps, std::uint64_t{3} * kUsed * (kTotal - 1))
        << "seed " << seed;

    std::vector<bool> assignment(static_cast<std::size_t>(kTotal), false);
    for (std::size_t idx = 0; idx < tables[0].size(); ++idx) {
      for (int k = 0; k < kUsed; ++k) assignment[used[k]] = (idx >> k) & 1;
      for (int i = 0; i < 3; ++i)
        ASSERT_EQ(wide.eval(keep[2 * i + 1].id(), assignment), tables[i][idx])
            << "seed " << seed << " function " << i;
    }
  }
}

class ReorderRandom : public ::testing::TestWithParam<int> {};

TEST_P(ReorderRandom, RandomSwapSequencesPreserveFunctions) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 613 + 19);
  const int n = rng.range(3, 9);
  Manager m(n);
  const Table t = test::random_table(rng, n);
  const Bdd f = test::bdd_from_table(m, t, n);
  for (int i = 0; i < 30; ++i) {
    m.swap_adjacent_levels(rng.range(0, n - 2));
    if (i % 10 == 9) m.garbage_collect();
  }
  EXPECT_EQ(test::table_from_bdd(m, f.id(), n), t);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReorderRandom, ::testing::Range(0, 20));

}  // namespace
}  // namespace mfd
