// LUT network IR: simulation, analysis, structural simplification, and the
// structural baseline generators (conditional-sum adder, Wallace tree).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>

#include "circuits/circuits.h"
#include "core/budget.h"
#include "core/errors.h"
#include "core/passes.h"
#include "core/synthesizer.h"
#include "io/blif.h"
#include "net/baselines.h"
#include "net/lutnet.h"
#include "net/odc_resubst.h"
#include "net/passmgr.h"
#include "net/simulate.h"
#include "obs/obs.h"
#include "testlib.h"
#include "util/rng.h"

namespace mfd::net {
namespace {

// Gate tables as words: bit m is the value at a = bit 0, b = bit 1 of m.
Lut and2(int a, int b) { return {{a, b}, tt::TruthTable::from_word(2, 0x8)}; }
Lut or2(int a, int b) { return {{a, b}, tt::TruthTable::from_word(2, 0xE)}; }
Lut xor2(int a, int b) { return {{a, b}, tt::TruthTable::from_word(2, 0x6)}; }
Lut inv(int a) { return {{a}, tt::TruthTable::from_word(1, 0x1)}; }
Lut buf(int a) { return {{a}, tt::TruthTable::from_word(1, 0x2)}; }

/// A random table over k inputs, one coin flip per minterm in index order.
tt::TruthTable random_table(Rng& rng, int k) {
  tt::TruthTable t(k);
  for (std::uint64_t m = 0; m < t.num_minterms(); ++m) t.set(m, rng.flip());
  return t;
}

/// A random LUT network over `n` primary inputs with `gates` LUTs of fanin
/// 1..3 and `num_outputs` outputs drawn from arbitrary signals (shared by
/// the simplify/collapse/odc behaviour-preservation tests).
LutNetwork random_network(Rng& rng, int n, int gates, int num_outputs) {
  LutNetwork net(n);
  std::vector<int> signals;
  for (int i = 0; i < n; ++i) signals.push_back(i);
  signals.push_back(kConst0);
  signals.push_back(kConst1);
  for (int g = 0; g < gates; ++g) {
    const int k = rng.range(1, 3);
    Lut lut;
    for (int j = 0; j < k; ++j)
      lut.inputs.push_back(signals[static_cast<std::size_t>(rng.below(signals.size()))]);
    lut.table = random_table(rng, k);
    signals.push_back(net.add_lut(std::move(lut)));
  }
  for (int o = 0; o < num_outputs; ++o)
    net.add_output(signals[static_cast<std::size_t>(rng.below(signals.size()))]);
  return net;
}

/// The projections of n primary inputs: simulating on them is exhaustive.
std::vector<tt::TruthTable> projections(int n) {
  std::vector<tt::TruthTable> pis;
  for (int i = 0; i < n; ++i) pis.push_back(tt::TruthTable::var(n, i));
  return pis;
}

/// Every output's table over all minterms of the primary inputs (bit m is
/// the output under the vector whose input i is bit i of m).
std::vector<tt::TruthTable> output_tables(const LutNetwork& net) {
  return simulate(net, projections(net.num_primary_inputs())).outputs(net);
}

/// The tables of gates over two inputs, as output_tables reads them.
std::vector<tt::TruthTable> tables2(std::initializer_list<std::uint64_t> words) {
  std::vector<tt::TruthTable> tables;
  for (std::uint64_t w : words) tables.push_back(tt::TruthTable::from_word(2, w));
  return tables;
}

TEST(LutNetwork, EvaluateSmallNetwork) {
  LutNetwork net(2);
  const int x = net.add_lut(xor2(0, 1));
  const int a = net.add_lut(and2(0, 1));
  net.add_output(x);
  net.add_output(a);
  EXPECT_EQ(output_tables(net), tables2({0x6, 0x8}));
}

TEST(LutNetwork, ConstantsAsInputsAndOutputs) {
  LutNetwork net(1);
  const int g = net.add_lut(and2(0, kConst1));
  net.add_output(g);
  net.add_output(kConst0);
  EXPECT_EQ(output_tables(net),
            (std::vector<tt::TruthTable>{tt::TruthTable::var(1, 0), tt::TruthTable(1)}));
}

TEST(LutNetwork, EqualityComparesTablesNotTheSummary) {
  // Two networks with the same counts, depth and gate kinds, whose one LUT
  // differs in one bit (AND vs. XNOR): to_string() agrees, == does not.
  LutNetwork a(2), b(2);
  a.add_output(a.add_lut(and2(0, 1)));
  b.add_output(b.add_lut({{0, 1}, tt::TruthTable::from_word(2, 0x9)}));
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(a == a);
  LutNetwork c(2);
  c.add_output(c.add_lut(and2(0, 1)));
  EXPECT_TRUE(a == c);
}

TEST(LutNetwork, DepthAndFanin) {
  LutNetwork net(3);
  const int a = net.add_lut(and2(0, 1));
  const int b = net.add_lut(and2(a, 2));
  const int c = net.add_lut(and2(a, b));
  net.add_output(c);
  EXPECT_EQ(net.depth(), 3);
  EXPECT_EQ(net.max_fanin(), 2);
  EXPECT_EQ(net.count_luts(), 3);
}

TEST(LutNetwork, DeadLutsNotCounted) {
  LutNetwork net(2);
  net.add_lut(and2(0, 1));  // dead
  const int x = net.add_lut(xor2(0, 1));
  net.add_output(x);
  EXPECT_EQ(net.count_luts(), 1);
  EXPECT_EQ(net.count_gates(), 1);
}

TEST(LutNetwork, ClassifyKinds) {
  EXPECT_EQ(LutNetwork::classify({{}, tt::TruthTable(0, true)}), LutKind::kConstant);
  EXPECT_EQ(LutNetwork::classify(buf(0)), LutKind::kBuffer);
  EXPECT_EQ(LutNetwork::classify(inv(0)), LutKind::kInverter);
  EXPECT_EQ(LutNetwork::classify(and2(0, 1)), LutKind::kGeneral);
  // A 2-input LUT that ignores one input is a buffer/inverter after pruning.
  EXPECT_EQ(LutNetwork::classify({{0, 1}, tt::TruthTable::from_word(2, 0xA)}), LutKind::kBuffer);
  EXPECT_EQ(LutNetwork::classify({{0, 1}, tt::TruthTable::from_word(2, 0x5)}), LutKind::kInverter);
  EXPECT_EQ(LutNetwork::classify({{0, 1}, tt::TruthTable::from_word(2, 0xF)}), LutKind::kConstant);
}

TEST(Simplify, RemovesBuffersAndDeadLogic) {
  LutNetwork net(2);
  const int b1 = net.add_lut(buf(0));
  const int b2 = net.add_lut(buf(b1));
  const int g = net.add_lut(and2(b2, 1));
  net.add_lut(xor2(0, 1));  // dead
  net.add_output(g);
  net.simplify();
  EXPECT_EQ(net.count_luts(), 1);
  EXPECT_EQ(output_tables(net), tables2({0x8}));
}

TEST(Simplify, FoldsConstants) {
  LutNetwork net(1);
  const int c1 = net.add_lut({{}, tt::TruthTable(0, true)});  // constant 1
  const int g = net.add_lut(and2(0, c1));       // x & 1 = x -> buffer -> wire
  const int h = net.add_lut(and2(g, kConst0));  // & 0 = 0
  net.add_output(h);
  net.add_output(g);
  net.simplify();
  EXPECT_EQ(net.count_luts(), 0);
  EXPECT_EQ(net.outputs()[0], kConst0);
  EXPECT_EQ(net.outputs()[1], 0);  // the primary input itself
}

TEST(Simplify, AbsorbsInverters) {
  LutNetwork net(2);
  const int n0 = net.add_lut(inv(0));
  const int g = net.add_lut(and2(n0, 1));  // !x0 & x1
  net.add_output(g);
  net.simplify();
  // The inverter is folded into the AND's table.
  EXPECT_EQ(net.count_luts(), 1);
  EXPECT_EQ(output_tables(net), tables2({0x4}));
}

TEST(Simplify, SharesDuplicateLuts) {
  LutNetwork net(2);
  const int a = net.add_lut(xor2(0, 1));
  const int b = net.add_lut(xor2(0, 1));
  const int g = net.add_lut(and2(a, b));  // x & x = buffer after dedup
  net.add_output(g);
  net.simplify();
  EXPECT_EQ(net.count_luts(), 1);  // single xor remains
}

TEST(Simplify, PreservesBehaviorOnRandomNetworks) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = rng.range(2, 5);
    LutNetwork net(n);
    std::vector<int> signals;
    for (int i = 0; i < n; ++i) signals.push_back(i);
    signals.push_back(kConst0);
    signals.push_back(kConst1);
    for (int g = 0; g < 12; ++g) {
      const int k = rng.range(1, 3);
      Lut lut;
      for (int j = 0; j < k; ++j)
        lut.inputs.push_back(signals[static_cast<std::size_t>(rng.below(signals.size()))]);
      lut.table = random_table(rng, k);
      signals.push_back(net.add_lut(std::move(lut)));
    }
    for (int o = 0; o < 3; ++o)
      net.add_output(signals[static_cast<std::size_t>(rng.below(signals.size()))]);

    // Record behavior, simplify, compare exhaustively.
    const std::vector<tt::TruthTable> before = output_tables(net);
    net.simplify();
    EXPECT_EQ(output_tables(net), before) << "trial " << trial;
  }
}

TEST(Collapse, MergesSingleFanoutChains) {
  // and(and(a,b), c) collapses into one 3-input LUT when k >= 3.
  LutNetwork net(3);
  const int t = net.add_lut(and2(0, 1));
  const int g = net.add_lut(and2(t, 2));
  net.add_output(g);
  EXPECT_EQ(net.collapse(3), 1);
  EXPECT_EQ(net.count_luts(), 1);
  EXPECT_EQ(output_tables(net),
            (std::vector<tt::TruthTable>{tt::TruthTable::from_word(3, 0x80)}));
}

TEST(Collapse, RespectsFaninBound) {
  LutNetwork net(4);
  const int t = net.add_lut(and2(0, 1));
  const int g = net.add_lut({{t, 2, 3}, tt::TruthTable::from_word(3, 0x80)});  // AND3
  net.add_output(g);
  EXPECT_EQ(net.collapse(3), 0);  // merged support would be 4
  EXPECT_EQ(net.count_luts(), 2);
  EXPECT_EQ(net.collapse(4), 1);
  EXPECT_EQ(net.count_luts(), 1);
}

TEST(Collapse, LeavesSharedFeedersAlone) {
  LutNetwork net(2);
  const int t = net.add_lut(xor2(0, 1));
  const int g1 = net.add_lut(and2(t, 0));
  const int g2 = net.add_lut(and2(t, 1));
  net.add_output(g1);
  net.add_output(g2);
  EXPECT_EQ(net.collapse(3), 0);  // t has fanout 2
}

TEST(Collapse, FeederDrivingAnOutputStays) {
  LutNetwork net(3);
  const int t = net.add_lut(and2(0, 1));
  const int g = net.add_lut(and2(t, 2));
  net.add_output(g);
  net.add_output(t);  // observable
  EXPECT_EQ(net.collapse(3), 0);
}

TEST(Collapse, PreservesBehaviorOnRandomNetworks) {
  Rng rng(881);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = rng.range(3, 5);
    LutNetwork net(n);
    std::vector<int> signals;
    for (int i = 0; i < n; ++i) signals.push_back(i);
    for (int g = 0; g < 15; ++g) {
      const int k = rng.range(1, 3);
      Lut lut;
      for (int j = 0; j < k; ++j)
        lut.inputs.push_back(signals[static_cast<std::size_t>(rng.below(signals.size()))]);
      lut.table = random_table(rng, k);
      signals.push_back(net.add_lut(std::move(lut)));
    }
    for (int o = 0; o < 3; ++o)
      net.add_output(signals[static_cast<std::size_t>(rng.below(signals.size()))]);

    const std::vector<tt::TruthTable> before = output_tables(net);
    net.collapse(4);
    EXPECT_LE(net.max_fanin(), 4);
    EXPECT_EQ(output_tables(net), before) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Output BDDs / checks
// ---------------------------------------------------------------------------

TEST(Simulate, OutputBddsMatchEvaluation) {
  // output_bdds (a BDD per live signal, to_bdd per LUT, each dropped after
  // its last reader) and simulate (a table per signal, compose per LUT)
  // walk the same networks; read back as tables, the output BDDs equal the
  // simulated outputs, constant and primary-input outputs included, on
  // networks with and without dead LUTs. The primary inputs sit on the
  // manager variables in reverse.
  Rng rng(88);
  int with_dead = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = rng.range(1, 8);
    const LutNetwork net = random_network(rng, n, rng.range(1, 20), rng.range(1, 4));
    if (net.count_luts() < net.num_luts()) ++with_dead;
    bdd::Manager m(n);
    std::vector<int> pis(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) pis[static_cast<std::size_t>(i)] = n - 1 - i;
    std::vector<bdd::Edge> roots;
    for (const bdd::Bdd& f : output_bdds(net, m, pis)) roots.push_back(f.id());
    EXPECT_EQ(tt::from_bdd(m, roots, pis), output_tables(net)) << "trial " << trial;
  }
  EXPECT_GT(with_dead, 0);
  EXPECT_LT(with_dead, 60);
}

TEST(Simulate, CheckExactHoldsOnlyTheFrontier) {
  // A chain of 80 links over 16 inputs: link 0 is a random 16-input LUT,
  // and link i is link i-1 XOR a random function of the three bottom inputs,
  // so every link's BDD is new above those three levels (~4 k nodes). The
  // one output is the last link; a dead random 16-input LUT hangs off the
  // side. Held at once, the signals take several times the manager's 2^16
  // growth floor. The exact check builds only what the output reads and
  // drops each link after its reader, so its peak stays a fraction of that.
  constexpr int kInputs = 16, kLinks = 80;
  Rng rng(4242);
  auto random_wide = [&rng] {
    tt::TruthTable t(kInputs);
    for (std::size_t w = 0; w < t.num_words(); ++w) t.data()[w] = rng.next();
    return t;
  };
  LutNetwork net(kInputs);
  std::vector<int> all_inputs(kInputs);
  std::iota(all_inputs.begin(), all_inputs.end(), 0);
  // The output's table: bit v is link 0's bit v XOR every g at the three
  // top bits of v.
  tt::TruthTable out = random_wide();
  int link = net.add_lut({all_inputs, out});
  net.add_lut({all_inputs, random_wide()});  // dead
  for (int i = 1; i < kLinks; ++i) {
    const tt::TruthTable g = random_table(rng, 3);
    // The link is the table's top variable, so to_bdd joins the halves
    // g and !g with one ite on it.
    tt::TruthTable t(4);
    for (std::uint64_t v = 0; v < t.num_minterms(); ++v) t.set(v, ((v >> 3) != 0) != g[v & 7]);
    link = net.add_lut({{kInputs - 3, kInputs - 2, kInputs - 1, link}, t});
    for (std::uint64_t v = 0; v < out.num_minterms(); ++v)
      if (g[v >> (kInputs - 3)]) out.set(v, !out[v]);
  }
  net.add_output(link);

  // Every signal's BDD at once, in a manager of its own: the nodes the walk
  // would hold if it kept them all.
  std::size_t all_signals = 0;
  {
    bdd::Manager all(kInputs);
    std::vector<bdd::Bdd> inputs;
    for (int v = 0; v < kInputs; ++v) inputs.push_back(all.var(v));
    const auto fns = walk(net, all.bdd_false(), all.bdd_true(), std::move(inputs),
                          every_signal(net), [&all](const tt::TruthTable& t, const auto& fanin) {
                            return tt::to_bdd(t, all, fanin);
                          });
    std::vector<bdd::Edge> roots;
    for (const bdd::Bdd& f : fns.signals) roots.push_back(f.id());
    all_signals = all.dag_size(roots);
  }
  ASSERT_GT(all_signals, std::size_t{3} << 16);

  bdd::Manager m(kInputs);
  std::vector<bdd::Bdd> x;
  for (int v = 0; v < kInputs; ++v) x.push_back(m.var(v));
  const std::vector<Isf> spec = {Isf::completely_specified(
      tt::to_bdd(out, m, [&](int j) -> const bdd::Bdd& { return x[static_cast<std::size_t>(j)]; }))};
  std::string error;
  EXPECT_TRUE(check_exact(net, spec, all_inputs, &error)) << error;
  EXPECT_LT(m.stats().peak_nodes, all_signals / 2);
}

/// A network of n primary inputs whose one output is their parity: one XOR
/// LUT per four inputs, then one XOR LUT over those.
LutNetwork parity_network(int n) {
  LutNetwork net(n);
  std::vector<int> partial;
  for (int first = 0; first < n; first += 4) {
    Lut lut;
    for (int i = first; i < std::min(n, first + 4); ++i) lut.inputs.push_back(i);
    lut.table = tt::TruthTable(static_cast<int>(lut.inputs.size()));
    for (std::uint64_t v = 0; v < lut.table.num_minterms(); ++v)
      lut.table.set(v, std::popcount(v) % 2 == 1);
    partial.push_back(net.add_lut(std::move(lut)));
  }
  tt::TruthTable top(static_cast<int>(partial.size()));
  for (std::uint64_t v = 0; v < top.num_minterms(); ++v) top.set(v, std::popcount(v) % 2 == 1);
  net.add_output(net.add_lut({partial, top}));
  return net;
}

TEST(Simulate, CheckBySimulationIsExhaustiveUpToSixteenInputs) {
  // A 16-input parity network against parity with its value flipped on the
  // one minterm where every input is 1. A sample of 2000 vectors misses that
  // minterm with probability 97%; the check simulates all 2^16 and so finds
  // it, like the exact check.
  constexpr int kInputs = 16;
  bdd::Manager m(kInputs);
  const LutNetwork net = parity_network(kInputs);
  bdd::Bdd parity = m.bdd_false(), all_ones = m.bdd_true();
  std::vector<int> pis(kInputs);
  for (int i = 0; i < kInputs; ++i) {
    parity ^= m.var(i);
    all_ones &= m.var(i);
    pis[static_cast<std::size_t>(i)] = i;
  }
  const std::vector<Isf> right{Isf::completely_specified(parity)};
  const std::vector<Isf> wrong{Isf::completely_specified(parity ^ all_ones)};
  EXPECT_TRUE(check_exact(net, right, pis));
  EXPECT_TRUE(check_by_simulation(net, right, pis));
  EXPECT_FALSE(check_exact(net, wrong, pis));
  EXPECT_FALSE(check_by_simulation(net, wrong, pis));
}

TEST(Simulate, CheckBySimulationSamplesWiderNetworks) {
  // Above 16 inputs the check runs 2048 seeded random vectors. A 20-input
  // parity network passes against parity at any seed and fails against the
  // parity of its first 19 inputs, which differs on every vector with
  // x19 = 1, unless the spec does not care there. The failure names a
  // vector that really is a counterexample.
  constexpr int kInputs = 20;
  bdd::Manager m(kInputs);
  const LutNetwork net = parity_network(kInputs);
  bdd::Bdd parity19 = m.bdd_false();
  std::vector<int> pis(kInputs);
  for (int i = 0; i < kInputs; ++i) {
    if (i < kInputs - 1) parity19 ^= m.var(i);
    pis[static_cast<std::size_t>(i)] = i;
  }
  const bdd::Bdd parity = parity19 ^ m.var(kInputs - 1);
  const std::vector<Isf> right{Isf::completely_specified(parity)};
  const std::vector<Isf> wrong{Isf::completely_specified(parity19)};
  const std::vector<Isf> wrong_where_free{Isf(parity19, !m.var(kInputs - 1))};
  for (const std::uint64_t seed : {7u, 8u, 99u}) {
    EXPECT_TRUE(check_by_simulation(net, right, pis, seed)) << "seed " << seed;
    EXPECT_TRUE(check_by_simulation(net, wrong_where_free, pis, seed)) << "seed " << seed;
    std::string error;
    ASSERT_FALSE(check_by_simulation(net, wrong, pis, seed, &error)) << "seed " << seed;
    const std::string prefix = "output 0 wrong under vector ";
    ASSERT_EQ(error.rfind(prefix, 0), 0u) << error;
    const std::string bits = error.substr(prefix.size());
    ASSERT_EQ(bits.size(), static_cast<std::size_t>(kInputs)) << error;
    std::vector<bool> assignment(kInputs);
    for (int i = 0; i < kInputs; ++i)
      assignment[static_cast<std::size_t>(i)] = bits[static_cast<std::size_t>(i)] == '1';
    EXPECT_NE(m.eval(parity.id(), assignment), m.eval(parity19.id(), assignment)) << error;
  }
}

/// The per-vector reading of the spec that check_by_simulation's exhaustive
/// path replaced, kept as its reference: the message naming the first
/// vector, in vector order and then output order, under which an output
/// differs from the spec where the spec cares, or "" when there is none.
std::string per_vector_failure(const LutNetwork& net, const std::vector<Isf>& spec,
                               const std::vector<int>& pis) {
  bdd::Manager& m = *spec.front().manager();
  const int n = net.num_primary_inputs();
  const std::vector<tt::TruthTable> out = output_tables(net);
  std::vector<bool> assignment(static_cast<std::size_t>(m.num_vars()), false);
  for (std::uint64_t v = 0; v < (std::uint64_t{1} << n); ++v) {
    for (int i = 0; i < n; ++i)
      assignment[static_cast<std::size_t>(pis[static_cast<std::size_t>(i)])] = (v >> i) & 1;
    for (std::size_t o = 0; o < spec.size(); ++o) {
      if (!m.eval(spec[o].care().id(), assignment)) continue;
      if (out[o][v] == m.eval(spec[o].on().id(), assignment)) continue;
      std::string message = "output " + std::to_string(o) + " wrong under vector ";
      for (int i = 0; i < n; ++i) message += ((v >> i) & 1) ? '1' : '0';
      return message;
    }
  }
  return "";
}

TEST(Simulate, CheckBySimulationNamesTheFirstWrongVector) {
  // Random networks of 1 to 9 inputs against a spec that equals them where
  // it cares, and the same spec with one or two planted one-bit errors at
  // cared points: the check passes the first and names, for the second, the
  // vector that the per-vector reading names (the lowest wrong vector, the
  // first output on a tie). The inputs stand for manager variables in a
  // scrambled order, and the spec also depends on the one variable outside
  // them, which reads as 0.
  Rng rng(2029);
  int ties = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const int n = rng.range(1, 9);
    const int outputs = rng.range(1, 3);
    const LutNetwork net = random_network(rng, n, 12, outputs);
    const std::vector<tt::TruthTable> out = output_tables(net);
    bdd::Manager m(n + 1);
    std::vector<int> vars(static_cast<std::size_t>(n + 1));
    std::iota(vars.begin(), vars.end(), 0);
    rng.shuffle(vars);
    const std::vector<int> pis(vars.begin(), vars.begin() + n);
    const bdd::Bdd outside = m.var(vars.back());
    auto to_bdd = [&](const tt::TruthTable& t) {
      return tt::to_bdd(t, m, [&](int j) { return m.var(pis[static_cast<std::size_t>(j)]); });
    };
    // Anything where the outside variable is 1.
    auto with_noise = [&](const bdd::Bdd& f) {
      return (f & !outside) | (to_bdd(random_table(rng, n)) & outside);
    };

    std::vector<tt::TruthTable> on = out, care;
    for (int o = 0; o < outputs; ++o) care.push_back(random_table(rng, n));
    auto spec_of = [&] {
      std::vector<Isf> spec;
      for (int o = 0; o < outputs; ++o) {
        const bdd::Bdd c = with_noise(to_bdd(care[static_cast<std::size_t>(o)]));
        spec.emplace_back(with_noise(to_bdd(on[static_cast<std::size_t>(o)])) & c, c);
      }
      return spec;
    };
    const std::vector<Isf> right = spec_of();
    std::string error;
    EXPECT_TRUE(check_by_simulation(net, right, pis, 7, &error))
        << "trial " << trial << ": " << error;
    EXPECT_EQ(per_vector_failure(net, right, pis), "") << "trial " << trial;

    const std::uint64_t v = rng.below(std::uint64_t{1} << n);
    const int o = rng.range(0, outputs - 1);
    std::vector<std::pair<std::uint64_t, int>> planted{{v, o}};
    if (outputs > 1 && rng.flip()) {
      planted.emplace_back(v, (o + rng.range(1, outputs - 1)) % outputs);  // a tie
      ++ties;
    } else if (rng.flip()) {
      planted.emplace_back(rng.below(std::uint64_t{1} << n), rng.range(0, outputs - 1));
    }
    for (const auto& [vector, output] : planted) {
      const auto o_at = static_cast<std::size_t>(output);
      on[o_at].set(vector, !out[o_at][vector]);
      care[o_at].set(vector, true);
    }
    const std::vector<Isf> wrong = spec_of();
    EXPECT_FALSE(check_by_simulation(net, wrong, pis, 7, &error)) << "trial " << trial;
    EXPECT_EQ(error, per_vector_failure(net, wrong, pis)) << "trial " << trial;
  }
  EXPECT_GT(ties, 0);
}

TEST(Simulate, CheckExactCatchesWrongNetwork) {
  bdd::Manager m(2);
  LutNetwork net(2);
  net.add_output(net.add_lut(and2(0, 1)));
  std::vector<Isf> good{Isf::completely_specified(m.var(0) & m.var(1))};
  std::vector<Isf> bad{Isf::completely_specified(m.var(0) | m.var(1))};
  std::string error;
  EXPECT_TRUE(check_exact(net, good, {0, 1}, &error));
  EXPECT_FALSE(check_exact(net, bad, {0, 1}, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(check_by_simulation(net, bad, {0, 1}, 7, &error));
  EXPECT_EQ(error, "output 0 wrong under vector 10");
  EXPECT_TRUE(check_by_simulation(net, good, {0, 1}));
}

TEST(Simulate, ZeroOutputNetworkMatchesZeroOutputSpec) {
  LutNetwork net(2);
  EXPECT_TRUE(check_exact(net, {}, {0, 1}));
  EXPECT_TRUE(check_by_simulation(net, {}, {0, 1}));
}

TEST(Simulate, DontCaresAreNotChecked) {
  bdd::Manager m(2);
  LutNetwork net(2);
  net.add_output(net.add_lut(and2(0, 1)));
  // Spec says OR, but only cares where x0 = x1 — there AND == OR... no:
  // (1,1) -> both 1; (0,0) -> both 0. So the AND network is admissible.
  const bdd::Bdd care = !(m.var(0) ^ m.var(1));
  std::vector<Isf> spec{Isf((m.var(0) | m.var(1)) & care, care)};
  EXPECT_TRUE(check_exact(net, spec, {0, 1}));
  EXPECT_TRUE(check_by_simulation(net, spec, {0, 1}));
}

// ---------------------------------------------------------------------------
// Structural baselines
// ---------------------------------------------------------------------------

/// a + b from the output tables of an adder over a (inputs 0..n-1) and b
/// (inputs n..2n-1), for every minterm v = a | b << n.
void expect_adds(const LutNetwork& net, int n) {
  const std::vector<tt::TruthTable> out = output_tables(net);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(n + 1));
  for (std::uint32_t v = 0; v < (1u << (2 * n)); ++v) {
    std::uint32_t sum = 0;
    for (int i = 0; i <= n; ++i)
      sum |= static_cast<std::uint32_t>(out[static_cast<std::size_t>(i)][v]) << i;
    ASSERT_EQ(sum, (v & ((1u << n) - 1)) + (v >> n)) << "n=" << n << " v=" << v;
  }
}

TEST(Baselines, RippleCarryAddsCorrectly) {
  for (const int n : {1, 2, 4}) expect_adds(ripple_carry_adder(n), n);
}

TEST(Baselines, ConditionalSumAddsCorrectly) {
  for (const int n : {2, 4, 8}) {
    const LutNetwork net = conditional_sum_adder(n);
    EXPECT_LE(net.max_fanin(), 2);
    expect_adds(net, n);
  }
}

TEST(Baselines, ConditionalSumFasterButBigger) {
  // The classic trade: CSA-8 has logarithmic depth but far more gates than
  // ripple (the paper quotes 90 two-input gates in its counting).
  LutNetwork csa = conditional_sum_adder(8);
  LutNetwork rca = ripple_carry_adder(8);
  EXPECT_LT(csa.depth(), rca.depth());
  EXPECT_GT(csa.count_gates(), rca.count_gates());
  EXPECT_GE(csa.count_gates(), 60);  // sanity: within the expected ballpark
  EXPECT_LE(csa.count_gates(), 120);
}

TEST(Baselines, WallaceTreeMultipliesPartialProducts) {
  for (const int n : {2, 3, 4}) {
    LutNetwork net = wallace_tree_pp(n);
    EXPECT_LE(net.max_fanin(), 2);
    // Drive the partial-product inputs from two operands, a (table
    // variables 0..n-1) and b (n..2n-1), so minterm v = a | b << n of the
    // outputs reads a * b.
    std::vector<tt::TruthTable> pp;
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        pp.push_back(tt::TruthTable::var(2 * n, i) & tt::TruthTable::var(2 * n, n + j));
    const std::vector<tt::TruthTable> out = simulate(net, std::move(pp)).outputs(net);
    for (std::uint32_t v = 0; v < (1u << (2 * n)); ++v) {
      std::uint32_t product = 0;
      for (int i = 0; i < 2 * n; ++i)
        product |= static_cast<std::uint32_t>(out[static_cast<std::size_t>(i)][v]) << i;
      ASSERT_EQ(product, (v & ((1u << n) - 1)) * (v >> n)) << "n=" << n << " v=" << v;
    }
  }
}

TEST(Baselines, WallaceGateCountNearTheFormula)  {
  // [23] / paper Section 6.1: Wallace-tree multiplier ~ 10n^2 - 20n gates
  // counting operand ANDs; ours starts from partial products, so compare
  // against the formula minus the n^2 AND gates, loosely.
  LutNetwork net = wallace_tree_pp(4);
  const int gates = net.count_gates();
  EXPECT_GT(gates, 40);
  EXPECT_LT(gates, 10 * 16 - 20 * 4);
}

// ---------------------------------------------------------------------------
// Bounds-checked mutators
// ---------------------------------------------------------------------------

TEST(LutNetwork, AddOutputRejectsInvalidSignals) {
  LutNetwork net(2);
  const int g = net.add_lut(and2(0, 1));
  net.add_output(g);          // LUT signal: fine
  net.add_output(1);          // primary input: fine
  net.add_output(kConst1);    // constant: fine
  EXPECT_THROW(net.add_output(g + 1), Error);  // not added yet
  EXPECT_THROW(net.add_output(-3), Error);     // below the constants
  EXPECT_EQ(net.num_outputs(), 3);
}

TEST(LutNetwork, ReplaceLutPreservesTopologicalOrder) {
  LutNetwork net(2);
  const int a = net.add_lut(and2(0, 1));
  const int g = net.add_lut(or2(a, 0));
  net.add_output(g);
  // In-place rewrite keeps the signal id and downstream wiring.
  net.replace_lut(net.lut_index(a), xor2(0, 1));
  EXPECT_EQ(output_tables(net), tables2({0xE}));  // (x0 ^ x1) | x0
  // A fanin at or above the replaced signal would create a cycle.
  EXPECT_THROW(net.replace_lut(net.lut_index(a), buf(a)), Error);
  EXPECT_THROW(net.replace_lut(net.lut_index(a), buf(g)), Error);
  // The table must range over the fanins; index must name an existing LUT.
  EXPECT_THROW(net.replace_lut(net.lut_index(a), Lut{{0}, tt::TruthTable(0, true)}), Error);
  EXPECT_THROW(net.replace_lut(5, buf(0)), Error);
  // Constants are always legal fanins.
  net.replace_lut(net.lut_index(a), and2(0, kConst1));
  EXPECT_EQ(output_tables(net), tables2({0xA}));  // x0 | x0
}

// ---------------------------------------------------------------------------
// Export (BLIF)
// ---------------------------------------------------------------------------

TEST(Export, BlifRoundTripsThroughTheParser) {
  // io::write_blif output must mean what the network computes: parse it back
  // with the io reader and compare output BDDs function by function.
  Rng rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = rng.range(2, 5);
    LutNetwork net = random_network(rng, n, 10, 3);
    bdd::Manager m(n);
    std::vector<int> pis(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) pis[static_cast<std::size_t>(i)] = i;
    const auto direct = output_bdds(net, m, pis);
    const io::BlifModel parsed = io::parse_blif(io::write_blif(net, "roundtrip"), m);
    EXPECT_EQ(parsed.name, "roundtrip");
    ASSERT_EQ(parsed.inputs.size(), static_cast<std::size_t>(n));
    ASSERT_EQ(parsed.functions.size(), direct.size());
    for (std::size_t o = 0; o < direct.size(); ++o)
      EXPECT_EQ(parsed.functions[o], direct[o]) << "trial " << trial << " output " << o;
  }
}

TEST(Export, BlifEmitsConstantsOnlyWhenReferenced) {
  LutNetwork net(1);
  net.add_output(net.add_lut(buf(0)));
  const std::string plain = io::write_blif(net, "lutnet");
  EXPECT_EQ(plain.find("const"), std::string::npos);
  net.add_output(kConst1);
  const std::string with_const = io::write_blif(net, "lutnet");
  EXPECT_NE(with_const.find("const1"), std::string::npos);
  EXPECT_EQ(with_const.find("const0"), std::string::npos);
  // The constant output still parses back to the constant function.
  bdd::Manager m(1);
  const io::BlifModel parsed = io::parse_blif(with_const, m);
  ASSERT_EQ(parsed.functions.size(), 2u);
  EXPECT_EQ(parsed.functions[1], m.bdd_true());
}

// ---------------------------------------------------------------------------
// Pass pipeline
// ---------------------------------------------------------------------------

TEST(PassMgr, ParsePipelineSpecTrimsAndValidates) {
  EXPECT_EQ(parse_pipeline_spec(" decompose , simplify,pack "),
            (std::vector<std::string>{"decompose", "simplify", "pack"}));
  EXPECT_THROW(parse_pipeline_spec(""), Error);
  EXPECT_THROW(parse_pipeline_spec("decompose,,pack"), Error);
  EXPECT_THROW(parse_pipeline_spec(" , "), Error);
  // Name validity is the builder's job: unknown passes throw there.
  SynthesisOptions opts;
  EXPECT_THROW(build_pipeline("decompose,frobnicate", opts), Error);
}

TEST(Pipeline, EveryStageLeavesAnAdmissibleNetwork) {
  // Randomized ISF specs through the full default pipeline, pass by pass;
  // after *every* pass the network must still be an admissible extension of
  // the spec (the per-pass contract in net/passmgr.h), checked both exactly
  // and by simulation.
  Rng rng(20260807);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = rng.range(4, 6);
    bdd::Manager m(n);
    auto random_fn = [&] {
      bdd::Bdd f = m.constant(rng.flip());
      for (int i = 0; i < 8; ++i) {
        const bdd::Bdd lit = m.literal(rng.range(0, n - 1), rng.flip());
        switch (rng.range(0, 2)) {
          case 0: f = f & lit; break;
          case 1: f = f | lit; break;
          default: f = f ^ lit; break;
        }
      }
      return f;
    };
    std::vector<Isf> spec;
    for (int o = 0; o < 3; ++o) {
      bdd::Bdd care = random_fn() | random_fn();
      if (care == m.bdd_false()) care = m.bdd_true();
      spec.push_back(Isf(random_fn() & care, care));
    }
    std::vector<int> pis(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) pis[static_cast<std::size_t>(i)] = i;

    SynthesisOptions opts = preset_mulop_dc(4);
    ResourceGovernor gov(opts.budget);
    ResourceGovernor::Scope gov_scope(gov);
    const PassPipeline pipeline = build_pipeline("", opts);
    ASSERT_EQ(pipeline.passes().size(), 4u);

    PassContext ctx;
    ctx.manager = &m;
    ctx.spec = &spec;
    ctx.pi_vars = &pis;
    ctx.options = &opts;
    LutNetwork net;
    for (const auto& pass : pipeline.passes()) {
      pass->run(net, ctx);
      std::string error;
      EXPECT_TRUE(check_exact(net, spec, pis, &error))
          << "trial " << trial << " after pass " << pass->name() << ": " << error;
      EXPECT_TRUE(check_by_simulation(net, spec, pis))
          << "trial " << trial << " after pass " << pass->name();
    }
    EXPECT_LE(net.max_fanin(), 4);
  }
}

// ---------------------------------------------------------------------------
// ODC resubstitution
// ---------------------------------------------------------------------------

TEST(OdcResubst, PreservesNetworkOutputsExactly) {
  // The pass exploits observability don't cares *inside* the network, so the
  // network's own output functions must survive bit-for-bit — not just an
  // admissible extension of some spec.
  Rng rng(1717);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = rng.range(3, 5);
    LutNetwork net = random_network(rng, n, 14, 3);
    const std::vector<tt::TruthTable> before = output_tables(net);
    const int before_luts = net.count_luts();

    bdd::Manager m(n);
    std::vector<int> pis(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) pis[static_cast<std::size_t>(i)] = i;
    OdcResubstPass pass(4);
    PassContext ctx;
    ctx.manager = &m;
    ctx.pi_vars = &pis;
    pass.run(net, ctx);

    EXPECT_LE(net.count_luts(), before_luts) << "trial " << trial;
    EXPECT_EQ(output_tables(net), before) << "trial " << trial;
  }
}

/// A copy of `net` over `num_inputs` primary inputs: primary input i stays
/// signal i and LUT k moves to signal num_inputs + k. Every primary input
/// the network reads must lie below num_inputs.
LutNetwork renumber_inputs(const LutNetwork& net, int num_inputs) {
  const auto map = [&](int s) {
    return net.is_constant(s) || net.is_primary_input(s) ? s
                                                         : num_inputs + net.lut_index(s);
  };
  LutNetwork out(num_inputs);
  for (int i = 0; i < net.num_luts(); ++i) {
    Lut lut = net.lut(i);
    for (int& in : lut.inputs) in = map(in);
    out.add_lut(std::move(lut));
  }
  for (int s : net.outputs()) out.add_output(map(s));
  return out;
}

TEST(OdcResubst, TablePathMatchesBddPath) {
  // The pass holds signal functions as truth tables at <= 16 primary inputs
  // and as BDDs above that; both must make exactly the same rewrites. Run
  // the table path on each random network as is, and the BDD path on a copy
  // widened by unused primary inputs past 16, in a manager whose variables
  // start in a scrambled order. The BDD path sifts that manager once per
  // run; the table path never does.
  constexpr int kWide = tt::kMaxVars + 1;
  constexpr int kTrials = 400;
  Rng rng(4242);
  Rng order_rng(4243);
  int rewritten = 0;
  obs::reset();
  for (int trial = 0; trial < kTrials; ++trial) {
    const int n = rng.range(3, 10);
    const int gates = rng.range(8, 30);
    const int outputs = rng.range(1, 4);
    LutNetwork narrow = random_network(rng, n, gates, outputs);
    LutNetwork wide = renumber_inputs(narrow, kWide);

    bdd::Manager m(kWide);
    std::vector<int> pis(static_cast<std::size_t>(kWide));
    for (int i = 0; i < kWide; ++i) pis[static_cast<std::size_t>(i)] = i;
    std::vector<int> order = pis;
    order_rng.shuffle(order);
    m.set_order(order);
    PassContext ctx;
    ctx.manager = &m;
    ctx.pi_vars = &pis;
    OdcResubstPass pass(4);
    bool narrow_changed = false, wide_changed = false;
    {
      obs::ScopedPhase phase("pass.odc_resubst");
      narrow_changed = pass.run(narrow, ctx);
      wide_changed = pass.run(wide, ctx);
    }
    const obs::Report report = obs::collect();
    const obs::PhaseNode* odc = report.phases.find("pass.odc_resubst");
    ASSERT_NE(odc, nullptr);
    const obs::PhaseNode* sift = odc->child("sift");
    ASSERT_NE(sift, nullptr) << "trial " << trial;
    ASSERT_EQ(sift->calls, static_cast<std::uint64_t>(trial + 1)) << "trial " << trial;
    ASSERT_EQ(narrow_changed, wide_changed) << "trial " << trial;
    rewritten += narrow_changed ? 1 : 0;

    ASSERT_TRUE(renumber_inputs(wide, n) == narrow) << "trial " << trial;
  }
  // Both paths ran on every trial, and most trials rewrote something.
  EXPECT_EQ(obs::counter_value("pass.odc.tt_runs"), static_cast<std::uint64_t>(kTrials));
  EXPECT_EQ(obs::counter_value("pass.odc.bdd_runs"), static_cast<std::uint64_t>(kTrials));
  EXPECT_GT(rewritten, kTrials / 2);
}

TEST(OdcResubst, RemovesLogicMaskedByItsFanout) {
  // g = (x0 & x1) | x0 absorbs to x0: under x0 = 0 the AND's output is the
  // constant 0 and under x0 = 1 it is unobservable, so its care set forces
  // it to a constant and the whole LUT dissolves. Structural simplify alone
  // cannot see this — it needs the windowed ODC computation.
  LutNetwork net(2);
  const int t = net.add_lut(and2(0, 1));
  const int g = net.add_lut(or2(t, 0));
  net.add_output(g);

  bdd::Manager m(2);
  std::vector<int> pis{0, 1};
  OdcResubstPass pass(5);
  PassContext ctx;
  ctx.manager = &m;
  ctx.pi_vars = &pis;
  EXPECT_TRUE(pass.run(net, ctx));
  EXPECT_EQ(net.count_luts(), 0);
  EXPECT_EQ(net.outputs()[0], 0);  // the wire x0
  EXPECT_EQ(output_tables(net), tables2({0xA}));
}

TEST(OdcResubst, IsANoOpWithoutAManager) {
  LutNetwork net(2);
  net.add_output(net.add_lut(and2(0, 1)));
  OdcResubstPass pass(5);
  PassContext ctx;  // no manager, no pi_vars
  EXPECT_FALSE(pass.run(net, ctx));
  EXPECT_EQ(net.count_luts(), 1);
}

}  // namespace
}  // namespace mfd::net
