// End-to-end tests of the full synthesis flow: decompose -> LUT network ->
// exact BDD verification + simulation, across presets, LUT sizes, and specs
// with genuine don't cares.
#include <gtest/gtest.h>

#include "circuits/circuits.h"
#include "core/errors.h"
#include "core/synthesizer.h"
#include "io/blif.h"
#include "net/simulate.h"
#include "testlib.h"
#include "tt/tt.h"
#include "util/rng.h"

namespace mfd {
namespace {

using bdd::Bdd;
using bdd::Manager;

std::vector<int> identity_pis(int n) {
  std::vector<int> pis(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pis[static_cast<std::size_t>(i)] = i;
  return pis;
}

void expect_flow_ok(const circuits::Benchmark& bench, const SynthesisOptions& opts,
                    int max_fanin) {
  Synthesizer synth(opts);
  const SynthesisResult result = synth.run(bench);
  EXPECT_TRUE(result.verified);
  EXPECT_LE(result.network.max_fanin(), max_fanin);
  // Independent path: simulate the network against the spec.
  std::vector<Isf> spec;
  for (const Bdd& f : bench.outputs) spec.push_back(Isf::completely_specified(f));
  std::string error;
  EXPECT_TRUE(net::check_by_simulation(result.network, spec, identity_pis(bench.num_inputs),
                                       /*seed=*/3, &error))
      << error;
}

TEST(Flow, Adder4Lut5) {
  Manager m(8);
  expect_flow_ok(circuits::adder(m, 4), preset_mulop_dc(5), 5);
}

TEST(Flow, Adder4Gates) {
  Manager m(8);
  expect_flow_ok(circuits::adder(m, 4), preset_mulop_dc(2), 2);
}

TEST(Flow, Adder4MulopII) {
  Manager m(8);
  expect_flow_ok(circuits::adder(m, 4), preset_mulopII(5), 5);
}

TEST(Flow, Rd53) {
  Manager m(5);
  expect_flow_ok(circuits::build("rd53", m), preset_mulop_dc(5), 5);
}

TEST(Flow, Z4ml) {
  Manager m(7);
  expect_flow_ok(circuits::build("z4ml", m), preset_mulop_dc(5), 5);
}

TEST(Flow, Misex1AllPresets) {
  for (const auto& opts :
       {preset_mulop_dc(5), preset_mulopII(5), preset_noshare_nodc(5)}) {
    Manager m(8);
    expect_flow_ok(circuits::build("misex1", m), opts, 5);
  }
}

TEST(Flow, PartialMultiplier3Gates) {
  Manager m(9);
  expect_flow_ok(circuits::partial_multiplier(m, 3), preset_mulop_dc(2), 2);
}

TEST(Flow, SpecWithDontCares) {
  // A genuinely incompletely specified spec: care only where x0^x1^x2 = 1.
  Manager m(6);
  const Bdd care = m.var(0) ^ m.var(1) ^ m.var(2);
  const Bdd on = (m.var(3) & m.var(4)) ^ (m.var(5) & m.var(0)) ^ m.var(1);
  std::vector<Isf> spec{Isf(on & care, care),
                        Isf((m.var(2) | m.var(4)) & care, care)};
  Synthesizer synth(preset_mulop_dc(3));
  const SynthesisResult result = synth.run(spec, identity_pis(6));
  EXPECT_TRUE(result.verified);
  EXPECT_LE(result.network.max_fanin(), 3);
}

TEST(Flow, StatsArePopulated) {
  Manager m(10);
  Synthesizer synth(preset_mulop_dc(4));
  const SynthesisResult r = synth.run(circuits::adder(m, 5));
  EXPECT_GE(r.stats.decomposition_steps + r.stats.shannon_fallbacks, 1);
  EXPECT_GE(r.stats.total_decomposition_functions, 0);
  EXPECT_LE(r.stats.total_decomposition_functions, r.stats.sum_r);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GE(r.clb_matching.num_clbs, 1);
  EXPECT_LE(r.clb_matching.num_clbs, r.clb_greedy.num_clbs);
}

TEST(Flow, ExtendedBoundSetsHelpMuxStructures) {
  // A 16:1 selector tree profits from bound sets wider than the LUT fanin
  // (the paper's "decompose alpha recursively" case).
  Manager m;
  const circuits::Benchmark bench = circuits::build("rot", m);
  SynthesisOptions with = preset_mulop_dc(5);
  SynthesisOptions without = preset_mulop_dc(5);
  without.decomp.max_bound_extra = 0;
  const auto r_with = Synthesizer(with).run(bench);
  const auto r_without = Synthesizer(without).run(bench);
  EXPECT_TRUE(r_with.verified);
  EXPECT_TRUE(r_without.verified);
  EXPECT_LT(r_with.network.count_luts(), r_without.network.count_luts());
  EXPECT_LE(r_with.network.max_fanin(), 5);
}

TEST(Flow, PortfolioNeverWorseThanConservative) {
  for (const char* name : {"rd84", "misex1", "C880"}) {
    Manager m1, m2;
    SynthesisOptions conservative = preset_mulop_dc(5);
    conservative.decomp.max_bound_extra = 0;
    const auto base = Synthesizer(conservative).run(circuits::build(name, m1));
    const auto full = Synthesizer(preset_mulop_dc(5)).run(circuits::build(name, m2));
    EXPECT_TRUE(full.verified);
    EXPECT_LE(full.network.count_luts(), base.network.count_luts()) << name;
  }
}

TEST(Flow, ConcurrentPortfolioMatchesTheSerialOne) {
  // On a spec of more than 16 inputs and without a budget, the portfolio's
  // conservative entry runs on a second thread in a manager of its own,
  // whose gauges the report carries as bdd.conservative.*. A node ceiling
  // far above the flow's peak never trips, but it keeps memoization off, so
  // the same flow runs both entries on one thread in one manager. Both
  // build the same network, and both reports count two decompose runs.
  for (const char* name : {"vg2", "misex2"}) {
    for (const SynthesisOptions& opts : {preset_mulopII(5), preset_mulop_dc(5)}) {
      Manager m1, m2;
      const circuits::Benchmark bench = circuits::build(name, m1);
      ASSERT_GT(bench.num_inputs, tt::kMaxVars) << name;
      const SynthesisResult concurrent = Synthesizer(opts).run(bench);
      SynthesisOptions ceiling = opts;
      ceiling.budget.node_ceiling = std::size_t{1} << 30;
      const SynthesisResult serial = Synthesizer(ceiling).run(circuits::build(name, m2));

      const std::string flow =
          std::string(name) + (opts.decomp.exploit_dc ? " mulop-dc" : " mulopII");
      EXPECT_TRUE(concurrent.verified) << flow;
      EXPECT_FALSE(serial.degradation.degraded()) << flow;
      EXPECT_EQ(io::write_blif(concurrent.network, name), io::write_blif(serial.network, name))
          << flow;
      EXPECT_EQ(concurrent.network.count_luts(), serial.network.count_luts()) << flow;
      EXPECT_EQ(concurrent.clb_greedy.num_clbs, serial.clb_greedy.num_clbs) << flow;
      EXPECT_EQ(concurrent.clb_matching.num_clbs, serial.clb_matching.num_clbs) << flow;
      EXPECT_TRUE(concurrent.stats == serial.stats) << flow;
      EXPECT_EQ(concurrent.report.gauges.count("bdd.conservative.peak_nodes"), 1u) << flow;
      EXPECT_EQ(serial.report.gauges.count("bdd.conservative.peak_nodes"), 0u) << flow;
      for (const SynthesisResult* r : {&concurrent, &serial}) {
        EXPECT_EQ(r->report.counters.at("decomp.runs"), 2u) << flow;
        EXPECT_EQ(r->report.counters.at("synth.portfolio_runs"), 1u) << flow;
        const obs::PhaseNode* decompose = r->report.phases.find("decompose");
        ASSERT_NE(decompose, nullptr) << flow;
        EXPECT_EQ(decompose->calls, 2u) << flow;
      }
    }
  }
}

TEST(Flow, BddMuxFallbackProducesCorrectNetworks) {
  // The no-profitable-bound-set fallback maps an output of more than 12
  // support variables as a direct BDD mux network instead of Shannon-
  // splitting it. A random function of 13 inputs has no profitable bound
  // set, so it takes that path.
  constexpr int kInputs = 13;
  Rng rng(1313);
  Manager m(kInputs);
  const std::vector<Isf> spec{Isf::completely_specified(
      test::bdd_from_table(m, test::random_table(rng, kInputs), kInputs))};
  SynthesisOptions opts = preset_mulop_dc(5);
  opts.decomp.boundset.max_evaluations = 1;  // starve the search
  opts.decomp.max_bound_extra = 0;
  opts.portfolio_bound_extra = false;
  const auto r = Synthesizer(opts).run(spec, identity_pis(kInputs));
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.report.counters.at("decomp.bdd_mux_fallbacks"), 0u);
  std::string error;
  EXPECT_TRUE(net::check_by_simulation(r.network, spec, identity_pis(kInputs), 7, &error))
      << error;
}

TEST(Flow, GateModeNeverEmitsWideLuts) {
  for (const char* name : {"z4ml", "rd73", "misex1"}) {
    Manager m;
    const auto r = Synthesizer(preset_mulop_dc(2)).run(circuits::build(name, m));
    EXPECT_TRUE(r.verified);
    EXPECT_LE(r.network.max_fanin(), 2) << name;
  }
}

TEST(Flow, TotalMinimalCodeModeIsCorrect) {
  // The [10]-style joint encoding must still synthesize correct networks.
  for (const char* name : {"rd84", "misex1", "z4ml"}) {
    Manager m;
    SynthesisOptions opts = preset_mulop_dc(5);
    opts.decomp.total_minimal_code = true;
    const auto r = Synthesizer(opts).run(circuits::build(name, m));
    EXPECT_TRUE(r.verified) << name;
    EXPECT_LE(r.network.max_fanin(), 5) << name;
  }
}

TEST(Flow, DeterministicAcrossRuns) {
  Manager m1, m2;
  const auto a = Synthesizer(preset_mulop_dc(5)).run(circuits::build("5xp1", m1));
  const auto b = Synthesizer(preset_mulop_dc(5)).run(circuits::build("5xp1", m2));
  EXPECT_EQ(a.network.count_luts(), b.network.count_luts());
  EXPECT_EQ(a.clb_matching.num_clbs, b.clb_matching.num_clbs);
  EXPECT_EQ(a.stats.decomposition_steps, b.stats.decomposition_steps);
}

TEST(CacheTest, CachedRunsAreBitIdenticalToUncached) {
  // Rules 1-2 of docs/CACHING.md: a node ceiling far above the flow's peak
  // never trips, but it keeps memoization off, so that run recomputes every
  // answer the output views would reuse. The default flow reuses them; its
  // cold run and its warm repeat in the same process build the same network
  // as the run that reuses nothing, and the repeat runs every pass again.
  const auto reused_outputs = [](const SynthesisResult& r) {
    const auto it = r.report.counters.find("boundset.reused_outputs");
    return it == r.report.counters.end() ? std::uint64_t{0} : it->second;
  };
  std::uint64_t reused = 0;
  for (const char* circuit : {"rd53", "rd73", "z4ml"}) {
    Manager m1, m2, m3;
    SynthesisOptions ceiling;
    ceiling.budget.node_ceiling = std::size_t{1} << 30;
    const SynthesisResult uncached = Synthesizer(ceiling).run(circuits::build(circuit, m1));
    const SynthesisResult cold = Synthesizer().run(circuits::build(circuit, m2));
    const SynthesisResult warm = Synthesizer().run(circuits::build(circuit, m3));

    ASSERT_TRUE(uncached.verified) << circuit;
    EXPECT_FALSE(uncached.degradation.degraded()) << circuit;
    EXPECT_EQ(reused_outputs(uncached), 0u) << circuit;
    for (const SynthesisResult* r : {&cold, &warm}) {
      EXPECT_TRUE(r->verified) << circuit;
      EXPECT_TRUE(uncached.network == r->network) << circuit;
      EXPECT_EQ(uncached.clb_greedy.num_clbs, r->clb_greedy.num_clbs) << circuit;
      EXPECT_EQ(uncached.clb_matching.num_clbs, r->clb_matching.num_clbs) << circuit;
      EXPECT_TRUE(uncached.stats == r->stats) << circuit;
      reused += reused_outputs(*r);
    }
    ASSERT_FALSE(warm.passes.empty()) << circuit;
    for (const net::PassStats& p : warm.passes) EXPECT_TRUE(p.ran) << circuit << " " << p.name;
  }
  // The comparison is not vacuous: the default runs did reuse answers.
  EXPECT_GT(reused, 0u);
}

class FlowRandom : public ::testing::TestWithParam<int> {};

TEST_P(FlowRandom, RandomMultiOutputFunctions) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 911 + 17);
  const int n = rng.range(6, 9);
  const int outs = rng.range(1, 4);
  Manager m(n);
  std::vector<Isf> spec;
  std::vector<Bdd> keep;
  for (int o = 0; o < outs; ++o) {
    const auto t = test::random_table(rng, n);
    keep.push_back(test::bdd_from_table(m, t, n));
    spec.push_back(Isf::completely_specified(keep.back()));
  }
  Synthesizer synth(preset_mulop_dc(rng.range(3, 5)));
  const SynthesisResult result = synth.run(spec, identity_pis(n));
  EXPECT_TRUE(result.verified);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowRandom, ::testing::Range(0, 12));

TEST_P(FlowRandom, RandomIncompletelySpecified) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 331 + 29);
  const int n = rng.range(6, 8);
  Manager m(n);
  std::vector<Isf> spec;
  for (int o = 0; o < 2; ++o) {
    const Bdd on = test::bdd_from_table(m, test::random_table(rng, n), n);
    const Bdd care = test::bdd_from_table(m, test::random_table(rng, n), n) |
                     test::bdd_from_table(m, test::random_table(rng, n), n);
    spec.emplace_back(on & care, care);
  }
  Synthesizer synth(preset_mulop_dc(4));
  const SynthesisResult result = synth.run(spec, identity_pis(n));
  EXPECT_TRUE(result.verified);
  std::string error;
  EXPECT_TRUE(net::check_by_simulation(result.network, spec, identity_pis(n), /*seed=*/5,
                                       &error))
      << error;
}

TEST(Flow, SingleVariableAndConstantOutputs) {
  Manager m(3);
  std::vector<Isf> spec{
      Isf::completely_specified(m.bdd_false()),
      Isf::completely_specified(m.bdd_true()),
      Isf::completely_specified(m.var(1)),
      Isf::completely_specified(!m.var(2)),
  };
  const auto r = Synthesizer(preset_mulop_dc(5)).run(spec, identity_pis(3));
  EXPECT_TRUE(r.verified);
  EXPECT_LE(r.network.count_luts(), 1);  // only the inverter can remain
}

TEST(Flow, VacuousSpecSynthesizesSomething) {
  // Every extension is admissible: any network verifies.
  Manager m(4);
  std::vector<Isf> spec{Isf(m.bdd_false(), m.bdd_false())};
  const auto r = Synthesizer(preset_mulop_dc(3)).run(spec, identity_pis(4));
  EXPECT_TRUE(r.verified);
}

TEST(Flow, SpecWithoutOutputsIsRejected) {
  // A PLA with `.o 0` or a BLIF with an empty `.outputs` list parses to an
  // empty spec; the flow refuses it with a typed error, not a crash.
  EXPECT_THROW(Synthesizer().run({}, {}), Error);
  EXPECT_THROW(decompose({}, identity_pis(2)), Error);
}

TEST(Flow, DuplicateOutputsShareLogic) {
  Manager m(8);
  const Bdd f = (m.var(0) & m.var(1)) ^ (m.var(2) | m.var(5)) ^ m.var(7);
  std::vector<Isf> spec{Isf::completely_specified(f), Isf::completely_specified(f),
                        Isf::completely_specified(f)};
  const auto r = Synthesizer(preset_mulop_dc(4)).run(spec, identity_pis(8));
  EXPECT_TRUE(r.verified);
  // All three outputs must resolve to the same signal after dedup.
  EXPECT_EQ(r.network.outputs()[0], r.network.outputs()[1]);
  EXPECT_EQ(r.network.outputs()[1], r.network.outputs()[2]);
}

TEST(Flow, ComplementOutputsStayCheap) {
  Manager m(6);
  const Bdd f = (m.var(0) ^ m.var(1)) & (m.var(2) | m.var(3)) & m.var(5);
  std::vector<Isf> spec{Isf::completely_specified(f), Isf::completely_specified(!f)};
  const auto r = Synthesizer(preset_mulop_dc(4)).run(spec, identity_pis(6));
  EXPECT_TRUE(r.verified);
}

TEST(Flow, LutSizesTheTablesCannotHoldAreRejected) {
  // The widest table is a decomposition function over k + max_bound_extra
  // bound variables (mulop-dc: k + 1), and tables hold at most 16.
  for (const int k : {1, 16}) {
    Manager m(7);
    EXPECT_THROW(Synthesizer(preset_mulop_dc(k)).run(circuits::build("rd73", m)), Error)
        << "k=" << k;
  }
  for (const int k : {2, 4, 5}) {
    Manager m(7);
    EXPECT_TRUE(Synthesizer(preset_mulop_dc(k)).run(circuits::build("rd73", m)).verified)
        << "k=" << k;
  }
}

TEST(Flow, WideLutEqualsSingleTable) {
  // When n <= n_LUT the flow must emit exactly one LUT per output.
  Manager m(5);
  Rng rng(77);
  std::vector<Isf> spec;
  for (int o = 0; o < 3; ++o)
    spec.push_back(Isf::completely_specified(
        test::bdd_from_table(m, test::random_table(rng, 5), 5)));
  const auto r = Synthesizer(preset_mulop_dc(5)).run(spec, identity_pis(5));
  EXPECT_TRUE(r.verified);
  EXPECT_LE(r.network.count_luts(), 3);
  EXPECT_EQ(r.network.depth(), 1);
}

}  // namespace
}  // namespace mfd
