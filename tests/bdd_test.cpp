#include <gtest/gtest.h>

#include <cmath>

#include "bdd/bdd.h"
#include "testlib.h"
#include "tt/tt.h"
#include "util/rng.h"

namespace mfd {
namespace {

using bdd::Bdd;
using bdd::Manager;
using test::Table;

// ---------------------------------------------------------------------------
// Basics
// ---------------------------------------------------------------------------

TEST(BddBasics, Constants) {
  Manager m(2);
  EXPECT_TRUE(m.bdd_true().is_true());
  EXPECT_TRUE(m.bdd_false().is_false());
  EXPECT_EQ(m.constant(true), m.bdd_true());
  EXPECT_NE(m.bdd_true(), m.bdd_false());
}

TEST(BddBasics, VariablesAreDistinctAndCanonical) {
  Manager m(3);
  EXPECT_EQ(m.var(0), m.var(0));  // canonicity: same node
  EXPECT_NE(m.var(0), m.var(1));
  EXPECT_EQ(m.literal(1, true), m.var(1));
  EXPECT_EQ(m.literal(1, false), !m.var(1));
}

TEST(BddBasics, BooleanAlgebraIdentities) {
  Manager m(3);
  const Bdd a = m.var(0), b = m.var(1), c = m.var(2);
  EXPECT_EQ(a & !a, m.bdd_false());
  EXPECT_EQ(a | !a, m.bdd_true());
  EXPECT_EQ(a ^ a, m.bdd_false());
  EXPECT_EQ((a & b) | (a & c), a & (b | c));
  EXPECT_EQ(!(a & b), (!a) | (!b));               // De Morgan
  EXPECT_EQ((a ^ b) ^ c, a ^ (b ^ c));        // associativity
  EXPECT_EQ(a.iff(b), !(a ^ b));
  EXPECT_EQ(a.diff(b), a & !b);
}

TEST(BddBasics, CanonicityAcrossConstructions) {
  Manager m(3);
  const Bdd a = m.var(0), b = m.var(1);
  // a XOR b built three different ways must be the same node.
  const Bdd x1 = a ^ b;
  const Bdd x2 = (a & (!b)) | ((!a) & b);
  const Bdd x3 = (a | b) & !(a & b);
  EXPECT_EQ(x1, x2);
  EXPECT_EQ(x2, x3);
}

TEST(BddBasics, IteSemantics) {
  Manager m(3);
  const Bdd f = m.var(0), g = m.var(1), h = m.var(2);
  const Bdd r = m.wrap(m.ite(f.id(), g.id(), h.id()));
  EXPECT_EQ(r, (f & g) | ((!f) & h));
  EXPECT_EQ(m.wrap(m.ite(f.id(), bdd::kTrue, bdd::kFalse)), f);
  EXPECT_EQ(m.wrap(m.ite(f.id(), bdd::kFalse, bdd::kTrue)), !f);
}

TEST(BddBasics, EvalWalksCorrectly) {
  Manager m(3);
  const Bdd maj = (m.var(0) & m.var(1)) | (m.var(1) & m.var(2)) | (m.var(0) & m.var(2));
  EXPECT_FALSE(m.eval(maj.id(), {false, false, true}));
  EXPECT_TRUE(m.eval(maj.id(), {true, false, true}));
  EXPECT_TRUE(m.eval(maj.id(), {true, true, true}));
}

// ---------------------------------------------------------------------------
// Truth-table oracle (property tests)
// ---------------------------------------------------------------------------

class BddRandomOps : public ::testing::TestWithParam<int> {};

TEST_P(BddRandomOps, BinaryOpsMatchTables) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  const int n = rng.range(1, 8);
  Manager m(n);
  const Table ta = test::random_table(rng, n);
  const Table tb = test::random_table(rng, n);
  const Bdd a = test::bdd_from_table(m, ta, n);
  const Bdd b = test::bdd_from_table(m, tb, n);

  const Table got_and = test::table_from_bdd(m, (a & b).id(), n);
  const Table got_or = test::table_from_bdd(m, (a | b).id(), n);
  const Table got_xor = test::table_from_bdd(m, (a ^ b).id(), n);
  const Table got_not = test::table_from_bdd(m, (!a).id(), n);
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(got_and[i], ta[i] && tb[i]);
    EXPECT_EQ(got_or[i], ta[i] || tb[i]);
    EXPECT_EQ(got_xor[i], ta[i] != tb[i]);
    EXPECT_EQ(got_not[i], !ta[i]);
  }
}

TEST_P(BddRandomOps, RoundTripThroughTable) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 13);
  const int n = rng.range(1, 9);
  Manager m(n);
  const Table t = test::random_table(rng, n);
  const Bdd f = test::bdd_from_table(m, t, n);
  EXPECT_EQ(test::table_from_bdd(m, f.id(), n), t);
}

TEST_P(BddRandomOps, CofactorMatchesTable) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
  const int n = rng.range(2, 8);
  Manager m(n);
  const Table t = test::random_table(rng, n);
  const Bdd f = test::bdd_from_table(m, t, n);
  const int v = rng.range(0, n - 1);
  const bool val = rng.flip();
  const Table got = test::table_from_bdd(m, f.cofactor(v, val).id(), n);
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::size_t j = val ? (i | (std::size_t{1} << v)) : (i & ~(std::size_t{1} << v));
    EXPECT_EQ(got[i], static_cast<bool>(t[j]));
  }
}

TEST_P(BddRandomOps, ComposeMatchesShannon) {
  // Composition as the library builds it for a LUT over its fanins'
  // functions: tt::to_bdd of f's table, variable v read as g and every
  // other variable as itself.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 257 + 11);
  const int n = rng.range(2, 7);
  Manager m(n);
  const Table ft = test::random_table(rng, n);
  const Bdd f = test::bdd_from_table(m, ft, n);
  const Bdd g = test::bdd_from_table(m, test::random_table(rng, n), n);
  const int v = rng.range(0, n - 1);
  tt::TruthTable table(n);
  for (std::size_t i = 0; i < ft.size(); ++i) table.set(i, ft[i]);
  const Bdd composed = tt::to_bdd(table, m, [&](int j) { return j == v ? g : m.var(j); });
  // f[v <- g] == (g & f|v=1) | (!g & f|v=0)
  const Bdd expect = (g & f.cofactor(v, true)) | ((!g) & f.cofactor(v, false));
  EXPECT_EQ(composed, expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomOps, ::testing::Range(0, 25));

TEST(BddExhaustive, AllThreeVarFunctionPairs) {
  // Exhaustive ground truth over every pair of 3-variable functions:
  // 256 x 256 combinations for and/or/xor, plus not for each function.
  Manager m(3);
  std::vector<Bdd> fns;
  std::vector<std::uint8_t> tts;
  for (int tt = 0; tt < 256; ++tt) {
    test::Table t(8);
    for (int i = 0; i < 8; ++i) t[static_cast<std::size_t>(i)] = (tt >> i) & 1;
    fns.push_back(test::bdd_from_table(m, t, 3));
    tts.push_back(static_cast<std::uint8_t>(tt));
  }
  // Canonicity: all 256 functions are distinct nodes.
  for (int a = 0; a < 256; ++a)
    for (int b = a + 1; b < 256; ++b) ASSERT_NE(fns[a].id(), fns[b].id());

  auto tt_of = [&](const Bdd& f) {
    int tt = 0;
    std::vector<bool> assignment(3);
    for (int i = 0; i < 8; ++i) {
      for (int v = 0; v < 3; ++v) assignment[static_cast<std::size_t>(v)] = (i >> v) & 1;
      if (m.eval(f.id(), assignment)) tt |= 1 << i;
    }
    return tt;
  };

  for (int a = 0; a < 256; ++a) {
    ASSERT_EQ(tt_of(!fns[a]), (~tts[a]) & 0xFF);
    for (int b = 0; b < 256; ++b) {
      ASSERT_EQ(tt_of(fns[a] & fns[b]), tts[a] & tts[b]);
      ASSERT_EQ(tt_of(fns[a] | fns[b]), tts[a] | tts[b]);
      ASSERT_EQ(tt_of(fns[a] ^ fns[b]), tts[a] ^ tts[b]);
    }
  }
}

TEST(BddExhaustive, AllTwoVarIteTriples) {
  // ite over every (f, g, h) triple of 2-variable functions: 16^3 = 4096.
  Manager m(2);
  std::vector<Bdd> fns;
  for (int tt = 0; tt < 16; ++tt) {
    test::Table t(4);
    for (int i = 0; i < 4; ++i) t[static_cast<std::size_t>(i)] = (tt >> i) & 1;
    fns.push_back(test::bdd_from_table(m, t, 2));
  }
  auto tt_of = [&](bdd::Edge f) {
    int tt = 0;
    std::vector<bool> assignment(2);
    for (int i = 0; i < 4; ++i) {
      assignment[0] = i & 1;
      assignment[1] = (i >> 1) & 1;
      if (m.eval(f, assignment)) tt |= 1 << i;
    }
    return tt;
  };
  for (int a = 0; a < 16; ++a)
    for (int b = 0; b < 16; ++b)
      for (int c = 0; c < 16; ++c)
        ASSERT_EQ(tt_of(m.ite(fns[a].id(), fns[b].id(), fns[c].id())),
                  (a & b) | ((~a & 0xF) & c))
            << a << " " << b << " " << c;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

TEST(BddQueries, SupportFindsExactDependencies) {
  Manager m(5);
  const Bdd f = (m.var(0) & m.var(3)) ^ m.var(4);
  EXPECT_EQ(m.support(f.id()), (std::vector<int>{0, 3, 4}));
  EXPECT_TRUE(m.support(bdd::kTrue).empty());
  // x1 & !x1 cancels: no support.
  const Bdd g = (m.var(1) | m.var(2)) & ((!m.var(1)) | m.var(2));
  EXPECT_EQ(m.support(g.id()), (std::vector<int>{2}));
}

TEST(BddQueries, SatCount) {
  Manager m(4);
  EXPECT_DOUBLE_EQ(m.sat_count(bdd::kTrue, 4), 16.0);
  EXPECT_DOUBLE_EQ(m.sat_count(bdd::kFalse, 4), 0.0);
  EXPECT_DOUBLE_EQ(m.sat_count(m.var(0).id(), 4), 8.0);
  const Bdd f = m.var(0) & m.var(1);
  EXPECT_DOUBLE_EQ(m.sat_count(f.id(), 4), 4.0);
  EXPECT_DOUBLE_EQ(m.sat_count(f.id(), 2), 1.0);
  const Bdd x = m.var(0) ^ m.var(1) ^ m.var(2) ^ m.var(3);
  EXPECT_DOUBLE_EQ(m.sat_count(x.id(), 4), 8.0);
}

TEST(BddQueries, PickOneSatisfies) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = rng.range(1, 8);
    Manager m(n);
    Table t = test::random_table(rng, n);
    t[rng.below(t.size())] = true;  // ensure satisfiable
    const Bdd f = test::bdd_from_table(m, t, n);
    const auto a = m.pick_one(f.id());
    EXPECT_TRUE(m.eval(f.id(), a));
  }
}

TEST(BddQueries, DagSizeCountsSharedOnce) {
  Manager m(4);
  const Bdd x = m.var(0) ^ m.var(1) ^ m.var(2) ^ m.var(3);
  // Parity over 4 vars with complement edges: one node per level (parity and
  // its complement share nodes) + the terminal = 4 + 1 = 5.
  EXPECT_EQ(m.dag_size(x.id()), 5u);
  // Negation is free: !x shares every node with x.
  EXPECT_EQ(m.dag_size({x.id(), (!x).id()}), m.dag_size(x.id()));
  // Shared roots counted once.
  const Bdd y = x ^ m.var(3);  // parity of first three vars
  const std::size_t both = m.dag_size({x.id(), y.id()});
  EXPECT_LT(both, m.dag_size(x.id()) + m.dag_size(y.id()));
}

// ---------------------------------------------------------------------------
// Reference counting and garbage collection
// ---------------------------------------------------------------------------

TEST(BddMemory, GcReclaimsDroppedFunctions) {
  Manager m(10);
  const std::size_t base = m.live_node_count();
  {
    Bdd acc = m.bdd_false();
    Rng rng(5);
    for (int i = 0; i < 30; ++i) {
      Bdd cube = m.bdd_true();
      for (int v = 0; v < 10; ++v)
        if (rng.chance(1, 3)) cube &= m.literal(v, rng.flip());
      acc |= cube;
    }
    EXPECT_GT(m.live_node_count(), base);
  }
  // All handles dropped: everything the loop built is dead.
  m.garbage_collect();
  EXPECT_EQ(m.live_node_count(), base);
}

TEST(BddMemory, LiveFunctionSurvivesGc) {
  Manager m(6);
  Rng rng(17);
  const Table t = test::random_table(rng, 6);
  const Bdd f = test::bdd_from_table(m, t, 6);
  m.garbage_collect();
  EXPECT_EQ(test::table_from_bdd(m, f.id(), 6), t);
  // Recreating the function after GC yields the identical node.
  const Bdd f2 = test::bdd_from_table(m, t, 6);
  EXPECT_EQ(f, f2);
}

TEST(BddMemory, OpsCorrectAfterGcRecycling) {
  Manager m(8);
  Rng rng(23);
  for (int round = 0; round < 5; ++round) {
    const Table ta = test::random_table(rng, 8);
    const Table tb = test::random_table(rng, 8);
    const Bdd a = test::bdd_from_table(m, ta, 8);
    const Bdd b = test::bdd_from_table(m, tb, 8);
    const Table got = test::table_from_bdd(m, (a & b).id(), 8);
    for (std::size_t i = 0; i < ta.size(); ++i) EXPECT_EQ(got[i], ta[i] && tb[i]);
    m.garbage_collect();  // recycle ids; computed table must be invalidated
  }
}

TEST(BddMemory, HandleCopySemantics) {
  Manager m(3);
  Bdd a = m.var(0) & m.var(1);
  Bdd b = a;  // copy
  Bdd c = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_EQ(b, c);
  b = b;  // self-assignment
  EXPECT_EQ(b, c);
  m.garbage_collect();
  EXPECT_EQ(b & m.bdd_true(), c);
}

// ---------------------------------------------------------------------------
// Dynamic variable creation and transfer
// ---------------------------------------------------------------------------

TEST(BddVars, AddVarGrowsManager) {
  Manager m(2);
  const Bdd f = m.var(0) & m.var(1);
  const int v = m.add_var();
  EXPECT_EQ(v, 2);
  EXPECT_EQ(m.num_vars(), 3);
  const Bdd g = f & m.var(v);
  EXPECT_EQ(m.support(g.id()), (std::vector<int>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Generalized cofactor (restrict)
// ---------------------------------------------------------------------------

TEST(BddRestrict, IdentityOnFullCare) {
  Manager m(4);
  const Bdd f = (m.var(0) & m.var(1)) ^ m.var(3);
  EXPECT_EQ(m.restrict_to(f.id(), bdd::kTrue), f.id());
}

TEST(BddRestrict, DropsVariablesOutsideCare) {
  Manager m(3);
  // care = x0: within the care set, f = x1; restrict should lose x0.
  const Bdd f = m.var(0) & m.var(1);
  const Bdd r = m.wrap(m.restrict_to(f.id(), m.var(0).id()));
  EXPECT_EQ(r, m.var(1));
}

TEST(BddRestrict, StaysInsideTheInterval) {
  Rng rng(71);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = rng.range(2, 8);
    Manager m(n);
    const Bdd f = test::bdd_from_table(m, test::random_table(rng, n), n);
    Table ct = test::random_table(rng, n);
    ct[rng.below(ct.size())] = true;  // care must be satisfiable
    const Bdd care = test::bdd_from_table(m, ct, n);
    const Bdd r = m.wrap(m.restrict_to(f.id(), care.id()));
    // f & care <= r <= f | !care
    EXPECT_TRUE(((f & care) & !r).is_false());
    EXPECT_TRUE((r & !(f | !care)).is_false());
  }
}

TEST(BddRestrict, TendsToShrink) {
  // The motivating case: a complicated function that is simple on the care set.
  Manager m(8);
  Bdd f = m.bdd_false();
  Rng rng(73);
  for (int c = 0; c < 20; ++c) {
    Bdd cube = m.bdd_true();
    for (int v = 0; v < 8; ++v)
      if (rng.chance(1, 2)) cube &= m.literal(v, rng.flip());
    f |= cube;
  }
  const Bdd care = m.var(0) & m.var(1) & m.var(2);  // tiny care region
  const Bdd r = m.wrap(m.restrict_to(f.id(), care.id()));
  EXPECT_LE(m.dag_size(r.id()), m.dag_size(f.id()));
  EXPECT_TRUE((((f ^ r) & care)).is_false());  // agrees where it matters
}

TEST(BddVars, ToDotMentionsAllNodes) {
  Manager m(3);
  const Bdd f = (m.var(0) & m.var(1)) | m.var(2);
  const std::string dot = m.to_dot({f.id()}, {"f"});
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("x0"), std::string::npos);
  EXPECT_NE(dot.find("x2"), std::string::npos);
}

}  // namespace
}  // namespace mfd
