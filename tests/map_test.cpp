// XC3000 CLB packing: mergeability rule, greedy vs matching packers.
#include <gtest/gtest.h>

#include "core/synthesizer.h"
#include "map/clb.h"
#include "net/baselines.h"
#include "testlib.h"
#include "util/rng.h"

namespace mfd::map {
namespace {

using net::Lut;
using net::LutNetwork;

Lut lut_on(std::vector<int> inputs) {
  Lut l;
  l.inputs = std::move(inputs);
  l.table = tt::TruthTable(static_cast<int>(l.inputs.size()));
  l.table.set(l.table.num_minterms() - 1, true);  // AND of all inputs
  return l;
}

TEST(Clb, MergeRule) {
  // 4+4 inputs with 3 shared -> 5 distinct: mergeable.
  EXPECT_TRUE(mergeable(lut_on({0, 1, 2, 3}), lut_on({1, 2, 3, 4})));
  // 4+4 with 2 shared -> 6 distinct: not mergeable.
  EXPECT_FALSE(mergeable(lut_on({0, 1, 2, 3}), lut_on({2, 3, 4, 5})));
  // A 5-input LUT can never pair.
  EXPECT_FALSE(mergeable(lut_on({0, 1, 2, 3, 4}), lut_on({0})));
  // Two small LUTs always pair when unioned inputs fit.
  EXPECT_TRUE(mergeable(lut_on({0}), lut_on({1, 2})));
}

TEST(Clb, PackSimpleNetwork) {
  LutNetwork net(6);
  const int a = net.add_lut(lut_on({0, 1, 2, 3}));  // pairs with b
  const int b = net.add_lut(lut_on({1, 2, 3, 4}));
  const int c = net.add_lut(lut_on({0, 1, 2, 3, 4}));  // 5 inputs: alone
  net.add_output(a);
  net.add_output(b);
  net.add_output(c);
  const ClbResult greedy = pack_greedy(merge_graph(net));
  const ClbResult matching = pack_matching(merge_graph(net));
  EXPECT_EQ(greedy.num_luts, 3);
  EXPECT_EQ(matching.merged_pairs, 1);
  EXPECT_EQ(matching.num_clbs, 2);
  EXPECT_LE(matching.num_clbs, greedy.num_clbs);
}

TEST(Clb, MatchingBeatsGreedyOnAdversarialCase) {
  // Chain a-b-c-d where greedy pairs (a,b) leaving c,d unpairable would tie,
  // so build a star-ish case: greedy pairs the first feasible, matching
  // finds the perfect pairing.
  LutNetwork net(8);
  // a:{0,1,2,3} pairs with b:{0,1,2,4} and c:{1,2,3,0};
  // d:{4,5,6,7} pairs ONLY with b (via... construct directly):
  const int a = net.add_lut(lut_on({0, 1, 2, 3}));
  const int b = net.add_lut(lut_on({0, 1, 2, 4}));
  const int c = net.add_lut(lut_on({0, 1, 2, 3}));  // duplicate inputs, distinct LUT
  const int d = net.add_lut(lut_on({4, 5, 6, 7}));
  net.add_output(a);
  net.add_output(b);
  net.add_output(c);
  net.add_output(d);
  // Pairs: a-b, a-c, b-c share >= 3 inputs; d pairs with nobody (4 distinct
  // + at best 1 shared with b = 7 > 5). Max matching = 2 pairs? a-b and c-?
  // c pairs with a or b only; so best is (a,c)(b alone)(d alone) or (a,b)(c)(d):
  // both give 1 pair. Just verify consistency between the two packers.
  const ClbResult greedy = pack_greedy(merge_graph(net));
  const ClbResult matching = pack_matching(merge_graph(net));
  EXPECT_EQ(matching.merged_pairs, 1);
  EXPECT_LE(matching.num_clbs, greedy.num_clbs);
}

TEST(Clb, PackRealNetworks) {
  for (const int n : {4, 8}) {
    LutNetwork net = net::conditional_sum_adder(n);
    const ClbResult greedy = pack_greedy(merge_graph(net));
    const ClbResult matching = pack_matching(merge_graph(net));
    EXPECT_EQ(greedy.num_luts, matching.num_luts);
    EXPECT_LE(matching.num_clbs, greedy.num_clbs);  // matching is optimal
    EXPECT_GE(matching.merged_pairs, 1);
    EXPECT_EQ(matching.num_clbs + matching.merged_pairs, matching.num_luts);
  }
}

TEST(Clb, MatchingOptimalOnRandomMergeGraphs) {
  // The matching packer must equal the brute-force maximum pairing.
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const int luts = rng.range(2, 8);
    LutNetwork net(6);
    for (int i = 0; i < luts; ++i) {
      std::vector<int> ins;
      const int k = rng.range(1, 4);
      for (int j = 0; j < k; ++j) {
        const int cand = rng.range(0, 5);
        if (std::find(ins.begin(), ins.end(), cand) == ins.end()) ins.push_back(cand);
      }
      net.add_output(net.add_lut(lut_on(ins)));
    }
    const BitGraph g = merge_graph(net);
    const ClbResult matching = pack_matching(g);
    EXPECT_EQ(matching.merged_pairs, test::brute_force_max_matching(g));
  }
}

/// Random networks of `luts` live LUTs over 8 inputs, 1-5 fanins each, some
/// of them reading earlier LUTs; a dead LUT (no reader, no output) is added
/// every few LUTs, so the live LUTs are not the index range.
LutNetwork random_network(Rng& rng, int luts) {
  LutNetwork net(8);
  std::vector<int> signals;
  for (int i = 0; i < 8; ++i) signals.push_back(i);  // the primary inputs
  for (int i = 0; i < luts; ++i) {
    std::vector<int> ins;
    const int k = rng.range(1, 5);
    while (static_cast<int>(ins.size()) < k) {
      const int s = signals[rng.below(signals.size())];
      if (std::find(ins.begin(), ins.end(), s) == ins.end()) ins.push_back(s);
    }
    const int lut = net.add_lut(lut_on(std::move(ins)));
    if (rng.chance(1, 6)) continue;  // dead
    net.add_output(lut);
    signals.push_back(lut);
  }
  return net;
}

/// First-fit pairing of the live LUTs, testing mergeable() pair by pair in
/// index order: the greedy packer's definition, without a merge graph.
int first_fit_pairs(const LutNetwork& net) {
  const auto live = net.live_luts();
  std::vector<int> idx;
  for (int i = 0; i < net.num_luts(); ++i)
    if (live[static_cast<std::size_t>(i)]) idx.push_back(i);
  const int n = static_cast<int>(idx.size());
  std::vector<bool> paired(static_cast<std::size_t>(n), false);
  int pairs = 0;
  for (int a = 0; a < n; ++a) {
    if (paired[static_cast<std::size_t>(a)]) continue;
    for (int b = a + 1; b < n; ++b) {
      if (paired[static_cast<std::size_t>(b)]) continue;
      if (mergeable(net.lut(idx[static_cast<std::size_t>(a)]),
                    net.lut(idx[static_cast<std::size_t>(b)]))) {
        paired[static_cast<std::size_t>(a)] = paired[static_cast<std::size_t>(b)] = true;
        ++pairs;
        break;
      }
    }
  }
  return pairs;
}

TEST(Clb, PackersShareOneMergeGraph) {
  // Both packers read one merge graph; greedy must pair exactly as
  // first-fit over mergeable() does, and matching must pair at least as
  // many. Networks of up to 150 live LUTs make rows of up to three words.
  Rng rng(43);
  for (int trial = 0; trial < 40; ++trial) {
    const LutNetwork net = random_network(rng, rng.range(1, 180));
    const BitGraph g = merge_graph(net);
    const int live = net.count_luts();
    ASSERT_EQ(g.num_vertices(), live);
    const ClbResult greedy = pack_greedy(g);
    const ClbResult matching = pack_matching(g);
    EXPECT_EQ(greedy.num_luts, live);
    EXPECT_EQ(greedy.merged_pairs, first_fit_pairs(net)) << "trial " << trial;
    EXPECT_EQ(greedy.num_clbs, live - greedy.merged_pairs);
    EXPECT_EQ(matching.num_luts, live);
    EXPECT_GE(matching.merged_pairs, greedy.merged_pairs) << "trial " << trial;
    EXPECT_EQ(matching.num_clbs, live - matching.merged_pairs);
  }
}

// ---------------------------------------------------------------------------
// XC4000 packing
// ---------------------------------------------------------------------------

TEST(Xc4000, AbsorbsHTriples) {
  // f(0..3) and g(4..7) feed a 2-input combiner: one CLB.
  LutNetwork net(8);
  const int f = net.add_lut(lut_on({0, 1, 2, 3}));
  const int g = net.add_lut(lut_on({4, 5, 6, 7}));
  const int h = net.add_lut(lut_on({f, g}));
  net.add_output(h);
  const Xc4000Result r = pack_xc4000(net);
  EXPECT_EQ(r.num_luts, 3);
  EXPECT_EQ(r.h_triples, 1);
  EXPECT_EQ(r.num_clbs, 1);
}

TEST(Xc4000, NoAbsorptionAcrossFanout) {
  // The feeder also drives a primary output: it cannot vanish inside H.
  LutNetwork net(8);
  const int f = net.add_lut(lut_on({0, 1, 2, 3}));
  const int g = net.add_lut(lut_on({4, 5, 6, 7}));
  const int h = net.add_lut(lut_on({f, g}));
  net.add_output(h);
  net.add_output(f);  // extra fanout via output
  const Xc4000Result r = pack_xc4000(net);
  EXPECT_EQ(r.h_triples, 0);
  EXPECT_EQ(r.num_clbs, 2);  // three LUTs -> pair + single
}

TEST(Xc4000, WideCombinerNotAbsorbed) {
  LutNetwork net(10);
  const int f = net.add_lut(lut_on({0, 1, 2, 3}));
  const int g = net.add_lut(lut_on({4, 5, 6, 7}));
  const int h = net.add_lut(lut_on({f, g, 8, 9}));  // 4 inputs: H has only 3
  net.add_output(h);
  const Xc4000Result r = pack_xc4000(net);
  EXPECT_EQ(r.h_triples, 0);
  EXPECT_EQ(r.num_clbs, 2);
}

TEST(Xc4000, PairsAreUnconstrained) {
  // Unlike the XC3000, two 4-input LUTs with disjoint supports still share
  // a CLB (independent F and G generators).
  LutNetwork net(8);
  net.add_output(net.add_lut(lut_on({0, 1, 2, 3})));
  net.add_output(net.add_lut(lut_on({4, 5, 6, 7})));
  const Xc4000Result r = pack_xc4000(net);
  EXPECT_EQ(r.pairs, 1);
  EXPECT_EQ(r.num_clbs, 1);
  const ClbResult xc3000 = pack_matching(merge_graph(net));
  EXPECT_EQ(xc3000.num_clbs, 2);  // the XC3000 rule rejects this pair
}

TEST(Xc4000, FullFlowOnBenchmarks) {
  for (const char* name : {"rd84", "z4ml", "misex1"}) {
    bdd::Manager m;
    const auto bench = mfd::circuits::build(name, m);
    const auto result = mfd::Synthesizer(mfd::preset_mulop_dc(4)).run(bench);
    ASSERT_TRUE(result.verified);
    ASSERT_LE(result.network.max_fanin(), 4);
    const Xc4000Result r = pack_xc4000(result.network);
    EXPECT_EQ(r.num_luts, result.network.count_luts());
    EXPECT_GE(r.num_clbs, (r.num_luts + 1) / 3);  // can't beat all-triples
    EXPECT_LE(r.num_clbs, r.num_luts);
    EXPECT_EQ(r.h_triples * 3 + r.pairs * 2 + r.singles, r.num_luts);
  }
}

}  // namespace
}  // namespace mfd::map
