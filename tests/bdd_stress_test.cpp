// Soak tests for the BDD substrate: long randomized operation sequences
// mirrored against a truth-table interpreter, with garbage collection and
// dynamic reordering interleaved at random points. This is the test that
// catches interactions the per-op unit tests cannot (cache invalidation
// across GC, in-place swap vs. live handles, id recycling).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

#include "bdd/bdd.h"
#include "core/errors.h"
#include "testlib.h"
#include "tt/tt.h"
#include "util/rng.h"

namespace mfd {
namespace {

using bdd::Bdd;
using bdd::Manager;
using test::Table;

Table table_and(const Table& a, const Table& b) {
  Table r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] && b[i];
  return r;
}
Table table_or(const Table& a, const Table& b) {
  Table r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] || b[i];
  return r;
}
Table table_xor(const Table& a, const Table& b) {
  Table r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] != b[i];
  return r;
}
Table table_not(const Table& a) {
  Table r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = !a[i];
  return r;
}
Table table_ite(const Table& f, const Table& g, const Table& h) {
  Table r(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) r[i] = f[i] ? g[i] : h[i];
  return r;
}
Table table_cof(const Table& a, int v, bool val, int n) {
  Table r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::size_t j =
        val ? (i | (std::size_t{1} << v)) : (i & ~(std::size_t{1} << v));
    r[i] = a[j];
  }
  (void)n;
  return r;
}
Table table_compose(const Table& f, int v, const Table& g) {
  Table r(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    const std::size_t j =
        g[i] ? (i | (std::size_t{1} << v)) : (i & ~(std::size_t{1} << v));
    r[i] = f[j];
  }
  return r;
}

/// f with g substituted for variable v, built the way the library composes
/// a LUT over its fanins' functions: tt::to_bdd of f's table, fanin v read
/// as g and every other fanin as its own variable.
Bdd compose_by_table(Manager& m, const Table& f, int n, int v, const Bdd& g) {
  tt::TruthTable t(n);
  for (std::size_t i = 0; i < f.size(); ++i) t.set(i, f[i]);
  return tt::to_bdd(t, m, [&](int j) { return j == v ? g : m.var(j); });
}

class BddSoak : public ::testing::TestWithParam<int> {};

TEST_P(BddSoak, LongMixedSequenceMatchesInterpreter) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 101);
  const int n = rng.range(4, 8);
  Manager m(n);

  // Parallel worlds: BDD handles and their truth tables.
  std::vector<Bdd> fns;
  std::vector<Table> tables;
  for (int v = 0; v < n; ++v) {
    fns.push_back(m.var(v));
    Table t(std::size_t{1} << n);
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = (i >> v) & 1;
    tables.push_back(std::move(t));
  }

  const int steps = 300;
  for (int step = 0; step < steps; ++step) {
    const std::size_t count = fns.size();
    auto pick = [&]() { return rng.below(count); };
    switch (rng.below(10)) {
      case 0: {  // and
        const auto a = pick(), b = pick();
        fns.push_back(fns[a] & fns[b]);
        tables.push_back(table_and(tables[a], tables[b]));
        break;
      }
      case 1: {  // or
        const auto a = pick(), b = pick();
        fns.push_back(fns[a] | fns[b]);
        tables.push_back(table_or(tables[a], tables[b]));
        break;
      }
      case 2: {  // xor
        const auto a = pick(), b = pick();
        fns.push_back(fns[a] ^ fns[b]);
        tables.push_back(table_xor(tables[a], tables[b]));
        break;
      }
      case 3: {  // not
        const auto a = pick();
        fns.push_back(!fns[a]);
        tables.push_back(table_not(tables[a]));
        break;
      }
      case 4: {  // ite
        const auto a = pick(), b = pick(), c = pick();
        fns.push_back(m.wrap(m.ite(fns[a].id(), fns[b].id(), fns[c].id())));
        tables.push_back(table_ite(tables[a], tables[b], tables[c]));
        break;
      }
      case 5: {  // cofactor
        const auto a = pick();
        const int v = rng.range(0, n - 1);
        const bool val = rng.flip();
        fns.push_back(fns[a].cofactor(v, val));
        tables.push_back(table_cof(tables[a], v, val, n));
        break;
      }
      case 6: {  // compose
        const auto a = pick(), b = pick();
        const int v = rng.range(0, n - 1);
        fns.push_back(compose_by_table(m, tables[a], n, v, fns[b]));
        tables.push_back(table_compose(tables[a], v, tables[b]));
        break;
      }
      case 7: {  // drop some handles, then GC
        for (int d = 0; d < 5 && fns.size() > static_cast<std::size_t>(n) + 2; ++d) {
          const std::size_t victim =
              static_cast<std::size_t>(n) + rng.below(fns.size() - static_cast<std::size_t>(n));
          fns.erase(fns.begin() + static_cast<std::ptrdiff_t>(victim));
          tables.erase(tables.begin() + static_cast<std::ptrdiff_t>(victim));
        }
        m.garbage_collect();
        break;
      }
      case 8: {  // random adjacent swap burst
        for (int s = 0; s < 4; ++s) m.swap_adjacent_levels(rng.range(0, n - 2));
        break;
      }
      case 9: {  // full sift
        if (step % 3 == 0) m.sift();
        break;
      }
    }
  }

  // Final deep check of every surviving function.
  for (std::size_t i = 0; i < fns.size(); ++i)
    EXPECT_EQ(test::table_from_bdd(m, fns[i].id(), n), tables[i]) << "function " << i;
  // And the manager's bookkeeping survived: after GC, the live nodes are
  // exactly the referenced closure (dag_size additionally counts the shared
  // terminal, which is not a "live" allocation).
  m.garbage_collect();
  std::vector<bdd::Edge> roots;
  for (const Bdd& f : fns) roots.push_back(f.id());
  const std::size_t closure = m.dag_size(roots);
  const std::size_t live = m.live_node_count();
  EXPECT_GE(closure, live);
  EXPECT_LE(closure, live + 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddSoak, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// GC bookkeeping under reordering. Each subtable counts its dead nodes and
// the sweep skips the subtables that count none, so every count must follow
// node deaths, revivals and the variable rewrites of a swap.
// ---------------------------------------------------------------------------

class BddGcBookkeeping : public ::testing::TestWithParam<int> {};

TEST_P(BddGcBookkeeping, EveryCollectionLeavesOnlyLiveNodes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const int n = rng.range(5, 8);
  Manager m(n);
  std::vector<Bdd> fns;
  std::vector<Table> tables;
  for (int v = 0; v < n; ++v) {
    fns.push_back(m.var(v));
    Table t(std::size_t{1} << n);
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = (i >> v) & 1;
    tables.push_back(std::move(t));
  }

  int collections = 0;
  // After a collection no dead node may remain in any subtable, and every
  // held function must still be intact.
  auto check = [&](int step, const char* what) {
    ++collections;
    ASSERT_EQ(m.unique_table_size(), m.live_node_count())
        << "dead nodes left by " << what << " at step " << step;
    for (std::size_t i = 0; i < fns.size(); ++i)
      ASSERT_EQ(test::table_from_bdd(m, fns[i].id(), n), tables[i])
          << "function " << i << " after " << what << " at step " << step;
  };

  for (int step = 0; step < 400; ++step) {
    const std::size_t count = fns.size();
    auto pick = [&]() { return rng.below(count); };
    switch (rng.below(9)) {
      case 0: {
        const auto a = pick(), b = pick();
        fns.push_back(fns[a] & fns[b]);
        tables.push_back(table_and(tables[a], tables[b]));
        break;
      }
      case 1: {
        const auto a = pick(), b = pick();
        fns.push_back(fns[a] ^ fns[b]);
        tables.push_back(table_xor(tables[a], tables[b]));
        break;
      }
      case 2: {
        const auto a = pick(), b = pick(), c = pick();
        fns.push_back(m.wrap(m.ite(fns[a].id(), fns[b].id(), fns[c].id())));
        tables.push_back(table_ite(tables[a], tables[b], tables[c]));
        break;
      }
      case 3: {
        const auto a = pick(), b = pick();
        fns.push_back(!(fns[a] | fns[b]));
        tables.push_back(table_not(table_or(tables[a], tables[b])));
        break;
      }
      case 4: {  // drop handles without collecting: their nodes go dead
        for (int d = rng.range(1, 4); d > 0 && fns.size() > static_cast<std::size_t>(n); --d) {
          const std::size_t victim =
              static_cast<std::size_t>(n) + rng.below(fns.size() - static_cast<std::size_t>(n));
          fns.erase(fns.begin() + static_cast<std::ptrdiff_t>(victim));
          tables.erase(tables.begin() + static_cast<std::ptrdiff_t>(victim));
        }
        break;
      }
      case 5: {  // swaps rewrite dead nodes as well as live ones
        for (int s = rng.range(1, 6); s > 0; --s) m.swap_adjacent_levels(rng.range(0, n - 2));
        break;
      }
      case 6:
        m.sift();
        check(step, "sift");
        break;
      case 7: {
        std::vector<int> vars(static_cast<std::size_t>(n));
        std::iota(vars.begin(), vars.end(), 0);
        rng.shuffle(vars);
        m.sift_symmetric({{vars[0], vars[1], vars[2]}, {vars[3], vars[4]}});
        check(step, "sift_symmetric");
        break;
      }
      case 8:
        m.garbage_collect();
        check(step, "garbage_collect");
        break;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(collections, 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddGcBookkeeping, ::testing::Range(0, 12));

TEST(BddGcBookkeeping, CachedResultDoesNotOutliveItsRecycledNode) {
  // x0 & x1 is one fresh node over held children, cached under the
  // (x0, x1) key. Collecting it puts its index on top of the free list, and
  // the next new node (the projection x2) recycles it: a cache entry that
  // survived the collection would now answer x0 & x1 with x2.
  Manager m(3);
  const Bdd x0 = m.var(0), x1 = m.var(1);
  bdd::NodeIndex recycled;
  {
    const Bdd both = x0 & x1;
    recycled = both.id().index();
  }
  m.garbage_collect();
  EXPECT_EQ(m.unique_table_size(), 2u);
  const Bdd x2 = m.var(2);
  ASSERT_EQ(x2.id().index(), recycled) << "the scenario needs the index recycled";
  const std::uint64_t hits = m.stats().cache_hits;
  const Bdd both = x0 & x1;
  EXPECT_EQ(m.stats().cache_hits, hits) << "a pre-collection entry answered";
  EXPECT_NE(both, x2);
  for (std::size_t i = 0; i < 8; ++i) {
    const std::vector<bool> a{(i & 1) != 0, (i & 2) != 0, (i & 4) != 0};
    EXPECT_EQ(m.eval(both.id(), a), a[0] && a[1]);
  }
}

TEST(BddSoak, ManagerScalesThroughGrowthAndCollapse) {
  // Build a large structure, drop it, rebuild: the free list must recycle
  // and the unique tables must not degrade.
  Manager m(16);
  const std::size_t baseline = m.live_node_count();
  for (int round = 0; round < 5; ++round) {
    {
      Rng rng(static_cast<std::uint64_t>(round));
      Bdd acc = m.bdd_false();
      for (int c = 0; c < 200; ++c) {
        Bdd cube = m.bdd_true();
        for (int v = 0; v < 16; ++v)
          if (rng.chance(1, 4)) cube &= m.literal(v, rng.flip());
        acc |= cube;
      }
      EXPECT_GT(m.live_node_count(), baseline);
    }
    m.garbage_collect();
    EXPECT_EQ(m.live_node_count(), baseline) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Full-surface differential stress: every public operation — including O(1)
// negation and reordering — mirrored against the truth-table interpreter,
// on up to 10 variables. Complement edges touch every code path, so this is
// the canonicity gauntlet for the tagged-edge representation.
// ---------------------------------------------------------------------------

std::size_t table_count(const Table& a) {
  std::size_t c = 0;
  for (const bool b : a) c += b ? 1 : 0;
  return c;
}

class BddDifferential : public ::testing::TestWithParam<int> {};

TEST_P(BddDifferential, EveryPublicOpMatchesInterpreter) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const int n = rng.range(5, 10);
  Manager m(n);

  std::vector<Bdd> fns;
  std::vector<Table> tables;
  for (int v = 0; v < n; ++v) {
    fns.push_back(m.var(v));
    Table t(std::size_t{1} << n);
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = (i >> v) & 1;
    tables.push_back(std::move(t));
  }
  auto push = [&](Bdd f, Table t) {
    fns.push_back(std::move(f));
    tables.push_back(std::move(t));
  };

  const int steps = 250;
  for (int step = 0; step < steps; ++step) {
    const std::size_t count = fns.size();
    auto pick = [&]() { return rng.below(count); };
    switch (rng.below(11)) {
      case 0: {  // and / or
        const auto a = pick(), b = pick();
        if (rng.flip())
          push(fns[a] & fns[b], table_and(tables[a], tables[b]));
        else
          push(fns[a] | fns[b], table_or(tables[a], tables[b]));
        break;
      }
      case 1: {  // xor
        const auto a = pick(), b = pick();
        push(fns[a] ^ fns[b], table_xor(tables[a], tables[b]));
        break;
      }
      case 2: {  // negation: O(1), allocation-free, node-sharing
        const auto a = pick();
        const std::size_t live_before = m.live_node_count();
        Bdd g = !fns[a];
        EXPECT_EQ(m.live_node_count(), live_before) << "apply_not allocated";
        EXPECT_EQ(g.id(), !fns[a].id());
        EXPECT_EQ(m.dag_size({fns[a].id(), g.id()}), m.dag_size(fns[a].id()))
            << "f and !f must share every node";
        push(std::move(g), table_not(tables[a]));
        break;
      }
      case 3: {  // ite
        const auto a = pick(), b = pick(), c = pick();
        push(m.wrap(m.ite(fns[a].id(), fns[b].id(), fns[c].id())),
             table_ite(tables[a], tables[b], tables[c]));
        break;
      }
      case 4: {  // cofactor / cofactor_cube
        const auto a = pick();
        if (rng.flip()) {
          const int v = rng.range(0, n - 1);
          const bool val = rng.flip();
          push(fns[a].cofactor(v, val), table_cof(tables[a], v, val, n));
        } else {
          std::vector<std::pair<int, bool>> cube;
          Table t = tables[a];
          for (int v = 0; v < n; ++v)
            if (rng.chance(1, 4)) {
              const bool val = rng.flip();
              cube.emplace_back(v, val);
              t = table_cof(t, v, val, n);
            }
          push(m.wrap(m.cofactor_cube(fns[a].id(), cube)), std::move(t));
        }
        break;
      }
      case 5: {  // compose
        const auto a = pick(), b = pick();
        const int v = rng.range(0, n - 1);
        push(compose_by_table(m, tables[a], n, v, fns[b]),
             table_compose(tables[a], v, tables[b]));
        break;
      }
      case 6: {  // restrict: r must agree with f on the care set
        const auto a = pick(), c = pick();
        if (fns[c].is_false()) break;
        const Bdd r = m.wrap(m.restrict_to(fns[a].id(), fns[c].id()));
        const Table rt = test::table_from_bdd(m, r.id(), n);
        for (std::size_t i = 0; i < rt.size(); ++i)
          ASSERT_EQ(rt[i] && tables[c][i], tables[a][i] && tables[c][i])
              << "restrict left the interval at minterm " << i;
        push(r, rt);  // exact table: don't-care points are pinned now
        break;
      }
      case 7: {  // queries: eval, sat_count, support, pick_one
        const auto a = pick();
        for (int trial = 0; trial < 4; ++trial) {
          std::size_t idx = 0;
          std::vector<bool> assignment(static_cast<std::size_t>(n));
          for (int v = 0; v < n; ++v) {
            assignment[static_cast<std::size_t>(v)] = rng.flip();
            if (assignment[static_cast<std::size_t>(v)]) idx |= std::size_t{1} << v;
          }
          ASSERT_EQ(m.eval(fns[a].id(), assignment), tables[a][idx]);
        }
        ASSERT_EQ(m.sat_count(fns[a].id(), n),
                  static_cast<double>(table_count(tables[a])));
        const std::vector<int> supp = m.support(fns[a].id());
        for (int v = 0; v < n; ++v) {
          bool depends = false;
          for (std::size_t i = 0; i < tables[a].size() && !depends; ++i)
            depends = tables[a][i] != tables[a][i ^ (std::size_t{1} << v)];
          ASSERT_EQ(std::binary_search(supp.begin(), supp.end(), v), depends)
              << "support mismatch on x" << v;
        }
        if (!fns[a].is_false()) {
          const std::vector<bool> sat = m.pick_one(fns[a].id());
          std::size_t idx = 0;
          for (int v = 0; v < n; ++v)
            if (sat[static_cast<std::size_t>(v)]) idx |= std::size_t{1} << v;
          ASSERT_TRUE(tables[a][idx]) << "pick_one returned a non-minterm";
        }
        break;
      }
      case 8: {  // drop handles, GC
        for (int d = 0; d < 6 && fns.size() > static_cast<std::size_t>(n) + 2; ++d) {
          const std::size_t victim =
              static_cast<std::size_t>(n) + rng.below(fns.size() - static_cast<std::size_t>(n));
          fns.erase(fns.begin() + static_cast<std::ptrdiff_t>(victim));
          tables.erase(tables.begin() + static_cast<std::ptrdiff_t>(victim));
        }
        if (rng.flip()) m.garbage_collect();
        break;
      }
      case 9: {  // adjacent swaps
        for (int s = 0; s < 4; ++s) m.swap_adjacent_levels(rng.range(0, n - 2));
        break;
      }
      case 10: {  // set_order to a random permutation / sift
        if (step % 5 == 0) {
          std::vector<int> order(static_cast<std::size_t>(n));
          std::iota(order.begin(), order.end(), 0);
          for (int v = n - 1; v > 0; --v)
            std::swap(order[static_cast<std::size_t>(v)], order[rng.below(static_cast<std::size_t>(v) + 1)]);
          m.set_order(order);
        } else if (step % 7 == 0) {
          m.sift();
        }
        break;
      }
    }
  }

  for (std::size_t i = 0; i < fns.size(); ++i)
    EXPECT_EQ(test::table_from_bdd(m, fns[i].id(), n), tables[i]) << "function " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddDifferential, ::testing::Range(0, 8));

TEST(BddComplementEdges, ReactiveGcFiresUnderChurn) {
  // Build and drop large disjunctions without ever calling garbage_collect:
  // once the dead population passes the threshold, mk/op entry must reclaim.
  Manager m(16);
  Rng rng(99);
  for (int round = 0; round < 40; ++round) {
    Bdd acc = m.bdd_false();
    for (int c = 0; c < 120; ++c) {
      Bdd cube = m.bdd_true();
      for (int v = 0; v < 16; ++v)
        if (rng.chance(1, 3)) cube &= m.literal(v, rng.flip());
      acc |= cube;
    }
    // acc and its intermediates die here.
  }
  EXPECT_GT(m.stats().gc_auto_runs, 0u) << "reactive GC never fired";
  // Reactive GC must not have corrupted anything a full check would catch.
  const Bdd probe = m.var(3) ^ m.var(7);
  EXPECT_EQ(m.sat_count(probe.id(), 16), std::ldexp(1.0, 15));
}

TEST(BddComplementEdges, GrowthRuleCollectsGarbageBehindFewRoots) {
  // tt::to_bdd splits a table on its top variable first. With table
  // variable j on manager variable 15 - j, that is the manager's top level,
  // so every ite joins its halves as the children of one new node and a
  // dropped function leaves one dead root however many nodes it holds: the
  // dead-root rule (more than 4096 of them) never fires here. The growth
  // rule must collect once the population doubles past its 2^16 floor, so
  // the peak stays near the floor plus one function while the built total
  // passes it several times over.
  constexpr int kVars = 16;
  constexpr std::size_t kGrowthFloor = std::size_t{1} << 16;
  Manager m(kVars);
  std::vector<Bdd> x;     // x[j]: the manager variable of table variable j
  std::vector<int> vars;  // the same, as indices
  for (int j = 0; j < kVars; ++j) {
    x.push_back(m.var(kVars - 1 - j));
    vars.push_back(kVars - 1 - j);
  }
  Rng rng(2024);
  std::vector<Bdd> held;
  std::vector<tt::TruthTable> held_tables;
  std::size_t built = 0, largest = 0;
  for (int i = 0; built < 6 * kGrowthFloor; ++i) {
    tt::TruthTable t(kVars);
    for (std::size_t w = 0; w < t.num_words(); ++w) t.data()[w] = rng.next();
    Bdd f = tt::to_bdd(t, m, [&](int j) -> const Bdd& { return x[static_cast<std::size_t>(j)]; });
    built += f.size();
    largest = std::max(largest, f.size());
    if (i % 16 == 0) {  // a few stay referenced; every other one dies here
      held.push_back(std::move(f));
      held_tables.push_back(std::move(t));
    }
  }
  EXPECT_GT(m.stats().gc_auto_runs, 0u) << "the growth rule never fired";
  EXPECT_LE(m.stats().peak_nodes, 2 * kGrowthFloor + largest);
  for (std::size_t i = 0; i < held.size(); ++i)
    EXPECT_EQ(tt::from_bdd(m, {held[i].id()}, vars).front(), held_tables[i]) << "function " << i;
}

TEST(BddMemory, ComputedTableKeepsItsSize) {
  // The computed table has a fixed 2^16 entries, however many nodes the
  // manager holds: here the held functions pass 2^15 live nodes, half the
  // table's entries, and the operations that build them still read and
  // write the same table.
  constexpr int kVars = 16;
  constexpr std::size_t kCacheSize = std::size_t{1} << 16;
  Manager m(kVars);
  std::vector<int> vars(kVars);
  std::iota(vars.begin(), vars.end(), 0);
  const auto var = [&m](int j) { return m.var(j); };
  Rng rng(7);
  std::vector<Bdd> held;
  std::vector<tt::TruthTable> held_tables;
  while (m.live_node_count() <= kCacheSize / 2 + kCacheSize / 8) {
    tt::TruthTable t(kVars);
    for (std::size_t w = 0; w < t.num_words(); ++w) t.data()[w] = rng.next();
    held.push_back(tt::to_bdd(t, m, var));
    held_tables.push_back(std::move(t));
    // Mix in ITE traffic over what is held, so the table sees lookups and
    // inserts at every size.
    const Bdd mixed = held.front() ^ held.back();
    EXPECT_EQ(tt::from_bdd(m, {mixed.id()}, vars).front(),
              held_tables.front() ^ held_tables.back());
    ASSERT_EQ(m.cache_size(), kCacheSize) << "after " << held.size() << " functions";
  }
  EXPECT_GT(m.stats().cache_lookups, kCacheSize);
  for (std::size_t i = 0; i < held.size(); ++i)
    EXPECT_EQ(tt::from_bdd(m, {held[i].id()}, vars).front(), held_tables[i]) << "function " << i;
}

TEST(BddPreconditions, RestrictWithFalseCareThrowsTypedError) {
  Manager m(3);
  const Bdd f = m.var(0);
  try {
    (void)m.restrict_to(f.id(), bdd::kFalse);
    FAIL() << "restrict_to(care=0) did not throw";
  } catch (const mfd::BddError& e) {
    EXPECT_NE(std::string(e.what()).find("care set is constant false"), std::string::npos);
  }
  // The manager must remain fully usable after the throw.
  const Bdd g = m.var(1) & f;
  EXPECT_EQ(m.restrict_to(g.id(), m.bdd_true().id()), g.id());
  EXPECT_EQ(m.sat_count(g.id(), 3), 2.0);
}

TEST(BddPreconditions, PickOneOnFalseThrowsTypedError) {
  Manager m(3);
  EXPECT_THROW((void)m.pick_one(bdd::kFalse), mfd::BddError);
  // Post-throw probe: pick_one still works on satisfiable functions.
  const Bdd f = m.var(0) ^ m.var(2);
  const std::vector<bool> one = m.pick_one(f.id());
  ASSERT_EQ(one.size(), 3u);
  EXPECT_NE(one[0], one[2]);
}

}  // namespace
}  // namespace mfd
