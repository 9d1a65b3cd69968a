// Unit tests for the decomposition core: compatible classes, don't-care
// assignment steps, shared encodings, and bound-set selection.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "bdd/cofactor_dag.h"
#include "circuits/circuits.h"
#include "decomp/boundset.h"
#include "decomp/compat.h"
#include "decomp/dc_assign.h"
#include "decomp/decompose.h"
#include "decomp/encoding.h"
#include "obs/obs.h"
#include "sym/symmetry.h"
#include "testlib.h"
#include "util/rng.h"

namespace mfd {
namespace {

using bdd::Bdd;
using bdd::Manager;

// ---------------------------------------------------------------------------
// Compatible classes (ncc)
// ---------------------------------------------------------------------------

/// ncc(f, B) of a completely specified f: the distinct cofactors of its
/// cofactor DAG (bdd/cofactor_dag.h) over the bound set.
int dag_class_count(const Manager& m, const Bdd& f, const std::vector<int>& bound) {
  bdd::CofactorDag dag(m, f.id(), bdd::kTrue);
  std::vector<std::pair<bdd::CofactorDag::Id, bdd::CofactorDag::Id>> ids;
  dag.cofactors(bound, ids);
  return static_cast<int>(std::set(ids.begin(), ids.end()).size());
}

TEST(Compat, CodeLength) {
  EXPECT_EQ(code_length(1), 0);
  EXPECT_EQ(code_length(2), 1);
  EXPECT_EQ(code_length(3), 2);
  EXPECT_EQ(code_length(4), 2);
  EXPECT_EQ(code_length(5), 3);
  EXPECT_EQ(code_length(8), 3);
  EXPECT_EQ(code_length(9), 4);
}

TEST(Compat, NccOfSymmetricFunctionIsAtMostPPlusOne) {
  // Section 4: a function symmetric in the bound set has ncc <= p + 1.
  Manager m(8);
  std::vector<Bdd> bits;
  for (int i = 0; i < 8; ++i) bits.push_back(m.var(i));
  const circuits::Word count = circuits::count_ones(m, bits);
  const Bdd f = count[1];  // depends on all 8 vars, totally symmetric
  for (int p = 2; p <= 5; ++p) {
    std::vector<int> bound;
    for (int i = 0; i < p; ++i) bound.push_back(i);
    EXPECT_LE(dag_class_count(m, f, bound), p + 1) << "p=" << p;
    EXPECT_GE(dag_class_count(m, f, bound), 2);
  }
}

TEST(Compat, NccMatchesBruteForceOnRandomFunctions) {
  Rng rng(61);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = rng.range(4, 7);
    const int p = rng.range(2, 3);
    Manager m(n);
    const auto t = test::random_table(rng, n);
    const Bdd f = test::bdd_from_table(m, t, n);
    std::vector<int> bound;
    for (int i = 0; i < p; ++i) bound.push_back(i);
    // Brute force: group bound vertices by their full cofactor rows.
    std::set<std::vector<bool>> rows;
    for (std::size_t v = 0; v < (std::size_t{1} << p); ++v) {
      std::vector<bool> row;
      for (std::size_t rest = 0; rest < (std::size_t{1} << (n - p)); ++rest)
        row.push_back(t[v | (rest << p)]);
      rows.insert(row);
    }
    EXPECT_EQ(dag_class_count(m, f, bound), static_cast<int>(rows.size()));
  }
}

TEST(Compat, DecomposableFunctionHasSmallNcc) {
  // f = (x0 xor x1 xor x2) & x3 | ... : the bound {x0,x1,x2} communicates
  // only the parity -> 2 classes.
  Manager m(5);
  const Bdd parity = m.var(0) ^ m.var(1) ^ m.var(2);
  const Bdd f = (parity & m.var(3)) | ((!parity) & m.var(4));
  EXPECT_EQ(dag_class_count(m, f, {0, 1, 2}), 2);
}

TEST(Compat, CofactorTableMatchesManualCofactors) {
  Manager m(4);
  const Bdd f = (m.var(0) & m.var(2)) ^ (m.var(1) | m.var(3));
  const Isf isf = Isf::completely_specified(f);
  const CofactorTable table = cofactor_table(isf, {1, 3});
  ASSERT_EQ(table.entries.size(), 4u);
  // vertex 0b01: x1 = 1, x3 = 0.
  const Bdd expect = f.cofactor(1, true).cofactor(3, false);
  EXPECT_EQ(table.entries[1].on(), expect);
  EXPECT_TRUE(table.entries[1].is_completely_specified());
}

TEST(Compat, IncompatibilityGraphCompleteSpecified) {
  Manager m(3);
  const Bdd f = m.var(0) & m.var(1) & m.var(2);
  const CofactorTable t = cofactor_table(Isf::completely_specified(f), {0, 1});
  const auto compatible = [&](int a, int b) {
    return t.entries[static_cast<std::size_t>(a)].compatible_with(
        t.entries[static_cast<std::size_t>(b)]);
  };
  // Cofactors: 0,0,0,x2 -> vertices 0,1,2 mutually compatible, 3 conflicts.
  EXPECT_TRUE(compatible(0, 1));
  EXPECT_FALSE(compatible(0, 3));
  EXPECT_FALSE(compatible(1, 3));
  EXPECT_FALSE(compatible(2, 3));
}

TEST(Compat, IsfCompatibilityIsNotTransitive) {
  // The canonical example: a (on), b (dc), c (off) at the same point.
  Manager m(2);  // bound var x0, free var x1
  const Bdd x0 = m.var(0), x1 = m.var(1);
  // One output over (x0, x1): vertex x0=0 ON at x1=1, vertex x0=1 DC.
  const Isf f(x1 & !x0, (!x0) | (!x1));  // care everywhere except (x0=1, x1=1)
  const CofactorTable t = cofactor_table(f, {0});
  EXPECT_TRUE(t.entries[0].compatible_with(t.entries[1]));
}

TEST(Compat, PartitionByEquality) {
  Manager m(3);
  const Bdd f = m.var(0) ^ m.var(1);  // cofactors repeat diagonally
  const CofactorTable t = cofactor_table(Isf::completely_specified(f), {0, 1});
  const std::vector<int> part = partition_by_equality(t);
  EXPECT_EQ(part[0], part[3]);
  EXPECT_EQ(part[1], part[2]);
  EXPECT_NE(part[0], part[1]);
  EXPECT_EQ(num_classes(part), 2);
}

TEST(Compat, PartitionByEqualityMatchesMapReference) {
  // Tables drawn from a small pool of ISFs (two of them share an on-set but
  // not a care-set) repeat entries often, alone and jointly.
  Rng rng(29);
  const int n = 4;
  Manager m(n);
  const Bdd shared_on = test::bdd_from_table(m, test::random_table(rng, n), n) & !m.var(0);
  std::vector<Isf> pool{Isf(shared_on, m.bdd_true()), Isf(shared_on, !m.var(0)),
                        Isf::completely_specified(m.bdd_false())};
  ASSERT_EQ(pool[0].on(), pool[1].on());
  for (int i = 0; i < 4; ++i)
    pool.emplace_back(test::bdd_from_table(m, test::random_table(rng, n), n),
                      test::bdd_from_table(m, test::random_table(rng, n), n));
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t vertices = std::size_t{1} << rng.range(0, 8);
    const int distinct = rng.range(1, static_cast<int>(pool.size()));
    std::vector<CofactorTable> tables(static_cast<std::size_t>(rng.range(1, 4)));
    for (CofactorTable& t : tables)
      for (std::size_t v = 0; v < vertices; ++v)
        t.entries.push_back(pool[rng.below(static_cast<std::uint64_t>(distinct))]);

    std::map<std::vector<std::pair<bdd::Edge, bdd::Edge>>, int> ids;
    std::vector<int> expected, expected_first;
    for (std::size_t v = 0; v < vertices; ++v) {
      std::vector<std::pair<bdd::Edge, bdd::Edge>> key;
      for (const CofactorTable& t : tables)
        key.emplace_back(t.entries[v].on().id(), t.entries[v].care().id());
      const auto [it, inserted] = ids.emplace(key, static_cast<int>(ids.size()));
      expected.push_back(it->second);
      if (inserted) expected_first.push_back(static_cast<int>(v));
    }
    std::vector<int> first;
    EXPECT_EQ(partition_by_equality(tables, &first), expected) << "trial " << trial;
    EXPECT_EQ(first, expected_first) << "trial " << trial;
    if (tables.size() == 1) {
      EXPECT_EQ(partition_by_equality(tables[0]), expected);
    }
  }
}

// ---------------------------------------------------------------------------
// Don't-care assignment (steps 2 and 3)
// ---------------------------------------------------------------------------

/// Builds random ISF cofactor tables and checks the class invariants.
class DcAssignRandom : public ::testing::TestWithParam<int> {};

TEST_P(DcAssignRandom, PerOutputAssignmentIsSoundAndMinimalish) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 127 + 3);
  const int n = 6;
  Manager m(n);
  const Bdd on = test::bdd_from_table(m, test::random_table(rng, n), n);
  const Bdd care = test::bdd_from_table(m, test::random_table(rng, n), n);
  const Isf f(on & care, care);
  std::vector<CofactorTable> tables{cofactor_table(f, {0, 1, 2})};
  const CofactorTable original = tables[0];

  const auto partitions = assign_per_output(tables, 1);
  ASSERT_EQ(partitions.size(), 1u);
  const auto& part = partitions[0];
  const int k = num_classes(part);

  // Soundness: each merged vertex still admits what the original required.
  for (std::size_t v = 0; v < original.entries.size(); ++v) {
    const Isf& before = original.entries[v];
    const Isf& after = tables[0].entries[v];
    EXPECT_TRUE(((before.on() ^ after.on()) & before.care()).is_false());
    EXPECT_TRUE((before.care() & !after.care()).is_false());
  }
  // Vertices in one class are identical after merging.
  for (std::size_t a = 0; a < part.size(); ++a)
    for (std::size_t b = a + 1; b < part.size(); ++b)
      if (part[a] == part[b]) { EXPECT_EQ(tables[0].entries[a], tables[0].entries[b]); }
  // The class count is at most the completely specified (dc->0) count.
  std::set<bdd::Edge> zero_ext;
  for (const Isf& e : original.entries) zero_ext.insert(e.extension_zero().id());
  EXPECT_LE(k, static_cast<int>(zero_ext.size()));
  EXPECT_GE(k, 1);
}

TEST_P(DcAssignRandom, JointAssignmentBoundsSharing) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 9);
  const int n = 6, p = 3;
  Manager m(n);
  std::vector<CofactorTable> tables;
  std::vector<CofactorTable> originals;
  for (int o = 0; o < 3; ++o) {
    const Bdd on = test::bdd_from_table(m, test::random_table(rng, n), n);
    const Bdd care = test::bdd_from_table(m, test::random_table(rng, n), n);
    const Isf f(on & care, care);
    tables.push_back(cofactor_table(f, {0, 1, 2}));
    originals.push_back(tables.back());
  }
  const int joint = assign_joint(tables, 1);
  EXPECT_GE(joint, 1);
  EXPECT_LE(joint, 1 << p);

  // Soundness per output.
  for (std::size_t o = 0; o < tables.size(); ++o) {
    for (std::size_t v = 0; v < originals[o].entries.size(); ++v) {
      const Isf& before = originals[o].entries[v];
      const Isf& after = tables[o].entries[v];
      EXPECT_TRUE(((before.on() ^ after.on()) & before.care()).is_false());
    }
  }
  // Step 3 after step 2: per-output class count >= would-be joint bound's
  // log cannot be checked directly, but code_length(joint) must lower-bound
  // the total distinct functions needed; verified via the encoder below.
  const auto partitions = assign_per_output(tables, 1);
  Encoding enc = encode_shared(partitions, p, true);
  EXPECT_GE(enc.total_functions(), code_length(joint));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DcAssignRandom, ::testing::Range(0, 15));

TEST(DcAssign, JointMergeMakesClassesIdenticalAcrossOutputs) {
  Manager m(4);
  // Two outputs with complementary care: jointly mergeable.
  const Bdd x0 = m.var(0), x1 = m.var(1);
  std::vector<CofactorTable> tables{
      cofactor_table(Isf(m.var(2) & x0, x0), {0, 1}),
      cofactor_table(Isf(m.var(3) & !x0, !x0), {0, 1}),
  };
  const int joint = assign_joint(tables, 1);
  EXPECT_LE(joint, 2);  // x1 is irrelevant: vertices differing only in x1 merge
}

// ---------------------------------------------------------------------------
// Shared encodings
// ---------------------------------------------------------------------------

TEST(Encoding, SingleOutputUsesExactlyCeilLog2) {
  // 5 classes over p=3 -> r = 3.
  const std::vector<std::vector<int>> partitions{{0, 1, 2, 3, 4, 0, 1, 2}};
  const Encoding enc = encode_shared(partitions, 3, true);
  EXPECT_TRUE(encoding_is_valid(enc, partitions));
  EXPECT_EQ(enc.r(0), 3);
  EXPECT_EQ(enc.total_functions(), 3);
}

TEST(Encoding, IdenticalOutputsShareEverything) {
  const std::vector<int> part{0, 1, 2, 3, 0, 1, 2, 3};
  const std::vector<std::vector<int>> partitions{part, part, part};
  const Encoding enc = encode_shared(partitions, 3, true);
  EXPECT_TRUE(encoding_is_valid(enc, partitions));
  EXPECT_EQ(enc.total_functions(), 2);  // r_i = 2 each, fully shared
  for (int o = 0; o < 3; ++o) EXPECT_EQ(enc.r(o), 2);
}

TEST(Encoding, NoSharingBaselineDuplicates) {
  const std::vector<int> part{0, 1, 2, 3, 0, 1, 2, 3};
  const std::vector<std::vector<int>> partitions{part, part};
  const Encoding enc = encode_shared(partitions, 3, false);
  EXPECT_TRUE(encoding_is_valid(enc, partitions));
  EXPECT_EQ(enc.total_functions(), 4);  // 2 + 2, nothing shared
}

TEST(Encoding, CoarserPartitionReusesRefinementFunctions) {
  // Output 0 distinguishes 4 classes; output 1 only needs a coarsening
  // (pairs of 0's classes). A strict function for 1 must be constant on its
  // classes; at least one of 0's functions qualifies here.
  const std::vector<std::vector<int>> partitions{
      {0, 1, 2, 3},   // p = 2, fine partition
      {0, 0, 1, 1}};  // coarse: split only by vertex high bit
  const Encoding enc = encode_shared(partitions, 2, true);
  EXPECT_TRUE(encoding_is_valid(enc, partitions));
  EXPECT_EQ(enc.r(0), 2);
  EXPECT_EQ(enc.r(1), 1);
  EXPECT_EQ(enc.total_functions(), 2);  // output 1 reuses one of output 0's
}

TEST(Encoding, ConstantOutputNeedsNoFunctions) {
  const std::vector<std::vector<int>> partitions{{0, 0, 0, 0}};
  const Encoding enc = encode_shared(partitions, 2, true);
  EXPECT_TRUE(encoding_is_valid(enc, partitions));
  EXPECT_EQ(enc.r(0), 0);
  EXPECT_EQ(enc.total_functions(), 0);
}

class EncodingRandom : public ::testing::TestWithParam<int> {};

TEST_P(EncodingRandom, RandomPartitionsAlwaysValidAndMinimalPerOutput) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 71 + 5);
  const int p = rng.range(2, 5);
  const int m_out = rng.range(1, 5);
  std::vector<std::vector<int>> partitions;
  for (int o = 0; o < m_out; ++o) {
    const int k = rng.range(1, 1 << p);
    std::vector<int> part(std::size_t{1} << p);
    // Ensure every class id below k occurs at least once.
    for (std::size_t v = 0; v < part.size(); ++v)
      part[v] = v < static_cast<std::size_t>(k) ? static_cast<int>(v)
                                                : rng.range(0, k - 1);
    partitions.push_back(std::move(part));
  }
  for (const bool share : {true, false}) {
    const Encoding enc = encode_shared(partitions, p, share);
    EXPECT_TRUE(encoding_is_valid(enc, partitions));
    long sum_r = 0;
    for (int o = 0; o < m_out; ++o) {
      EXPECT_EQ(enc.r(o), code_length(num_classes(partitions[static_cast<std::size_t>(o)])));
      sum_r += enc.r(o);
    }
    EXPECT_LE(enc.total_functions(), sum_r);
    if (!share) { EXPECT_EQ(enc.total_functions(), sum_r); }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodingRandom, ::testing::Range(0, 30));

// ---------------------------------------------------------------------------
// Section 4 theorem: strict decomposition functions inherit symmetries
// ---------------------------------------------------------------------------

TEST(Strictness, DecompositionFunctionsInheritBoundSetSymmetries) {
  // Build functions symmetric in a pair inside the bound set; every emitted
  // decomposition function (strict by construction: constant on compatible
  // classes) must be symmetric in that pair as well.
  Rng rng(103);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 6;
    Manager m(n);
    // f = h(x0 + x1, x2, ..): symmetric in (x0, x1) by construction.
    const Bdd sum1 = m.var(0) ^ m.var(1);
    const Bdd both = m.var(0) & m.var(1);
    const Bdd g0 = test::bdd_from_table(m, test::random_table(rng, n), n)
                       .cofactor(0, false)
                       .cofactor(1, false);
    const Bdd g1 = test::bdd_from_table(m, test::random_table(rng, n), n)
                       .cofactor(0, false)
                       .cofactor(1, false);
    const Bdd g2 = test::bdd_from_table(m, test::random_table(rng, n), n)
                       .cofactor(0, false)
                       .cofactor(1, false);
    const Bdd f = ((!sum1) & (!both) & g0) | (sum1 & g1) | (both & g2);
    ASSERT_TRUE(is_symmetric(m, f.id(), 0, 1, SymmetryKind::kNonequivalence));

    const std::vector<int> bound{0, 1, 2};
    std::vector<CofactorTable> tables{
        cofactor_table(Isf::completely_specified(f), bound)};
    const auto partitions = assign_per_output(tables, 1);
    const Encoding enc = encode_shared(partitions, 3, true);
    ASSERT_TRUE(encoding_is_valid(enc, partitions));

    // Swapping bound bits 0 and 1 of a vertex must not change any function.
    for (const auto& fn : enc.functions) {
      for (std::uint64_t v = 0; v < fn.num_minterms(); ++v) {
        const bool b0 = v & 1, b1 = (v >> 1) & 1;
        std::size_t swapped = v & ~std::size_t{3};
        if (b0) swapped |= 2;
        if (b1) swapped |= 1;
        EXPECT_EQ(fn[v], fn[swapped]) << "alpha not symmetric in the bound pair";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Bound-set selection
// ---------------------------------------------------------------------------

TEST(BoundSet, FindsTheCommunicationMinimalCut) {
  // f = parity(x0,x1,x2) ? g(x3,x4) : h(x3,x4): the bound {0,1,2} has
  // ncc = 2 -> benefit 3-1 = 2; any mixed bound is worse.
  Manager m(5);
  const Bdd parity = m.var(0) ^ m.var(1) ^ m.var(2);
  const Bdd f = (parity & (m.var(3) & m.var(4))) | ((!parity) & (m.var(3) ^ m.var(4)));
  std::vector<OutputView> views = output_views({Isf::completely_specified(f)});
  const BoundSetChoice c = select_bound_set(views, {0, 1, 2, 3, 4}, 3, 1);
  EXPECT_EQ(c.vars, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(c.benefit, 2);
  EXPECT_EQ(c.r_per_output, (std::vector<int>{1}));
}

TEST(BoundSet, ZeroCutOutputContributesNothing) {
  Manager m(6);
  const Bdd f0 = m.var(0) ^ m.var(1) ^ m.var(2) ^ m.var(3);
  const Bdd f1 = m.var(4) & m.var(5);
  std::vector<OutputView> views =
      output_views({Isf::completely_specified(f0), Isf::completely_specified(f1)});
  const BoundSetChoice c = evaluate_bound_set(views, {0, 1, 2}, 1);
  EXPECT_EQ(c.r_per_output[1], 0);
  EXPECT_EQ(c.benefit, 2);  // 3 - 1 from f0 alone
}

TEST(BoundSet, SharingGapDetected) {
  // Two outputs with the same communication: joint classes == per-output
  // classes, so the gap r0 + r1 - r_joint is positive.
  Manager m(5);
  const Bdd parity = m.var(0) ^ m.var(1) ^ m.var(2);
  std::vector<OutputView> views = output_views(
      {Isf::completely_specified(parity & m.var(3)), Isf::completely_specified(parity | m.var(4))});
  const BoundSetChoice c = evaluate_bound_set(views, {0, 1, 2}, 1);
  EXPECT_EQ(c.sum_r, 2);
  EXPECT_EQ(c.sharing_gap, 1);  // joint ncc = 2 -> r_joint = 1
}

TEST(BoundSet, RespectsEvaluationBudget) {
  Manager m(8);
  const circuits::Benchmark bench = circuits::adder(m, 4);
  std::vector<Isf> fns;
  for (const Bdd& f : bench.outputs) fns.push_back(Isf::completely_specified(f));
  std::vector<OutputView> views = output_views(fns);
  BoundSetOptions opts;
  opts.max_evaluations = 3;
  const BoundSetChoice c = select_bound_set(views, {0, 1, 2, 3, 4, 5, 6, 7}, 4, 1, opts);
  EXPECT_FALSE(c.vars.empty());
}

// ---------------------------------------------------------------------------
// Variable-order seed
// ---------------------------------------------------------------------------

TEST(Decompose, SiftGateCountsOnlyLiveNodes) {
  // A dropped BDD of more than 20 000 nodes is garbage: it must not keep the
  // top-level symmetric sift from running on the next decomposition.
  constexpr int kPairs = 15;
  constexpr int kInputs = 7;
  Manager m(2 * kPairs + kInputs);
  {
    // OR of x_i & x_{i+15}: the order keeps every pair apart, so the BDD
    // remembers which of x_0..x_14 are set (~2^15 nodes).
    Bdd big = m.bdd_false();
    for (int i = 0; i < kPairs; ++i) big |= m.var(i) & m.var(i + kPairs);
    ASSERT_GT(m.live_node_count(), 20000u);
  }
  std::vector<int> pis;
  Bdd f = m.bdd_false();
  for (int v = 2 * kPairs; v < 2 * kPairs + kInputs; ++v) {
    pis.push_back(v);
    f ^= m.var(v);
  }
  obs::reset();
  decompose({Isf::completely_specified(f)}, pis);
  EXPECT_GE(obs::counter_value("decomp.sift_runs"), 1u);
}

}  // namespace
}  // namespace mfd
