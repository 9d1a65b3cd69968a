// Robustness suite: the resource governor, the typed error taxonomy, the
// degradation ladder, and the fault-injection harness (docs/ROBUSTNESS.md).
//
// The contract under test: every budget trip and every injected fault either
// (a) recovers through the degradation ladder — the flow still returns a
// *verified* LUT network and reports which rung it finished on — or
// (b) surfaces a typed mfd::Error, with the BDD manager and the obs registry
// left in a usable state. Nothing may crash or abort.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.h"
#include "cache/cache.h"
#include "circuits/circuits.h"
#include "core/budget.h"
#include "core/errors.h"
#include "core/faultinject.h"
#include "core/passes.h"
#include "core/synthesizer.h"
#include "decomp/boundset.h"
#include "isf/isf.h"
#include "net/simulate.h"
#include "obs/obs.h"
#include "testlib.h"
#include "tt/tt.h"

namespace mfd {
namespace {

using bdd::Bdd;
using bdd::Manager;

// ---------------------------------------------------------------------------
// ResourceGovernor unit tests
// ---------------------------------------------------------------------------

TEST(ResourceGovernor, NodeCeilingTripsWithTypedError) {
  ResourceBudget b;
  b.node_ceiling = 50;
  ResourceGovernor gov(b);
  gov.charge_mk(50);  // at the ceiling: fine
  try {
    gov.charge_mk(51);
    FAIL() << "node ceiling never tripped";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.resource(), BudgetExceeded::Resource::kNodes);
  }
}

TEST(ResourceGovernor, ForceExpireFiresDeadlineChecks) {
  ResourceGovernor gov;  // unlimited budget
  EXPECT_FALSE(gov.deadline_expired());
  gov.check_deadline("test");  // no deadline: no-op
  gov.force_expire();
  EXPECT_TRUE(gov.deadline_expired());
  try {
    gov.check_deadline("test");
    FAIL() << "expired deadline did not fire";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.resource(), BudgetExceeded::Resource::kTime);
  }
}

TEST(ResourceGovernor, SuspendScopeDisablesEveryCheck) {
  ResourceBudget b;
  b.node_ceiling = 1;
  ResourceGovernor gov(b);
  gov.force_expire();
  {
    ResourceGovernor::SuspendScope suspend(gov);
    EXPECT_TRUE(gov.suspended());
    EXPECT_FALSE(gov.deadline_expired());
    for (int i = 0; i < 100; ++i) gov.charge_mk(1000);  // would trip everything
    gov.check_deadline("test");
  }
  EXPECT_FALSE(gov.suspended());
  EXPECT_EQ(gov.report().suspended_sections, 1u);
  EXPECT_THROW(gov.check_deadline("test"), BudgetExceeded);
}

TEST(ResourceGovernor, DegradeLadderIsMonotoneAndRecorded) {
  ResourceGovernor gov;
  EXPECT_EQ(gov.degrade_level(), kDegradeFull);
  EXPECT_FALSE(gov.report().degraded());
  gov.degrade("test.phase", "because");
  gov.degrade("other.phase", "ignored second trip");
  EXPECT_EQ(gov.degrade_level(), kDegradeStructural);
  ASSERT_EQ(gov.report().events.size(), 1u);
  EXPECT_EQ(gov.report().events[0].phase, "test.phase");
  EXPECT_EQ(gov.report().events[0].reason, "because");
  EXPECT_TRUE(gov.report().degraded());
}

TEST(ResourceGovernor, MemoSafeRefusesBudgetedDegradedOrFaultyRuns) {
  EXPECT_TRUE(cache::memo_safe(nullptr));
  {
    ResourceGovernor unlimited;
    EXPECT_TRUE(cache::memo_safe(&unlimited));
  }
  {
    ResourceBudget budget;
    budget.node_ceiling = 1000;
    ResourceGovernor gov(budget);
    EXPECT_FALSE(cache::memo_safe(&gov));
  }
  {
    ResourceGovernor gov;
    gov.degrade("test", "test");
    EXPECT_FALSE(cache::memo_safe(&gov));
  }
  {
    ResourceGovernor gov;
    gov.force_expire();
    EXPECT_FALSE(cache::memo_safe(&gov));
  }
  fault::configure("decomp.boundset@1000000");
  EXPECT_FALSE(cache::memo_safe(nullptr));
  fault::clear();
  EXPECT_TRUE(cache::memo_safe(nullptr));
}

TEST(ResourceGovernor, ScopeInstallsAndRestoresNested) {
  EXPECT_EQ(ResourceGovernor::current(), nullptr);
  ResourceGovernor outer;
  {
    ResourceGovernor::Scope s1(outer);
    EXPECT_EQ(ResourceGovernor::current(), &outer);
    ResourceGovernor inner;
    {
      ResourceGovernor::Scope s2(inner);
      EXPECT_EQ(ResourceGovernor::current(), &inner);
    }
    EXPECT_EQ(ResourceGovernor::current(), &outer);
  }
  EXPECT_EQ(ResourceGovernor::current(), nullptr);
}

TEST(ResourceGovernor, EachThreadInstallsItsOwn) {
  ResourceGovernor flow;
  ResourceGovernor::Scope scope(flow);
  const ResourceGovernor* seen_before = &flow;
  bool installed_inside = false;
  std::thread([&] {
    seen_before = ResourceGovernor::current();
    ResourceGovernor worker;
    ResourceGovernor::Scope worker_scope(worker);
    installed_inside = ResourceGovernor::current() == &worker;
  }).join();
  EXPECT_EQ(seen_before, nullptr);
  EXPECT_TRUE(installed_inside);
  EXPECT_EQ(ResourceGovernor::current(), &flow);
}

TEST(ResourceGovernor, ReplayTakesOverAnotherGovernorsDegradation) {
  // A worker thread's governor degrades and counts it in its obs report;
  // the flow's governor replays it without counting it again.
  obs::reset();
  ResourceGovernor worker;
  worker.degrade("decomp.synth@d=1", "allocation failure (bad_alloc)");
  { ResourceGovernor::SuspendScope floor(worker); }
  const std::uint64_t counted = obs::counter_value("budget.degrade_events");
  ResourceGovernor flow;
  flow.replay(ResourceGovernor().report());  // nothing to take over
  EXPECT_FALSE(flow.report().degraded());
  flow.replay(worker.report());
  EXPECT_EQ(flow.degrade_level(), kDegradeStructural);
  ASSERT_EQ(flow.report().events.size(), 1u);
  EXPECT_EQ(flow.report().events[0].phase, "decomp.synth@d=1");
  EXPECT_EQ(flow.report().suspended_sections, 1u);
  EXPECT_EQ(obs::counter_value("budget.degrade_events"), counted);
  // An already degraded governor keeps its own event.
  ResourceGovernor other;
  other.degrade("elsewhere", "later");
  flow.replay(other.report());
  ASSERT_EQ(flow.report().events.size(), 1u);
  EXPECT_EQ(flow.report().events[0].phase, "decomp.synth@d=1");
}

TEST(ResourceGovernor, ManagerTripsNodeCeilingAndSurvives) {
  // Installing the governor is all it takes: every mk charges the installed
  // one, whatever manager it runs in.
  Manager m;
  ResourceBudget b;
  b.node_ceiling = 64;
  ResourceGovernor gov(b);
  {
    ResourceGovernor::Scope scope(gov);
    try {
      (void)circuits::build("mult4", m);  // far more than 64 nodes
      FAIL() << "node ceiling never tripped";
    } catch (const BudgetExceeded& e) {
      EXPECT_EQ(e.resource(), BudgetExceeded::Resource::kNodes);
    }
  }
  // The manager must be fully usable after the mid-operation throw: the
  // aborted operation's intermediates are dead roots for the next GC.
  m.garbage_collect();
  const Bdd parity = m.var(0) ^ m.var(1) ^ m.var(2) ^ m.var(3);
  EXPECT_EQ(m.sat_count(parity.id(), 4), 8.0);
}

TEST(ResourceGovernor, BoundSetSearchChargesNoNodeBudget) {
  // The 9-bit adder's top output is too wide for truth tables, so its
  // candidates are scored on a cofactor DAG, which makes no manager node: a
  // node ceiling without room for one cofactor never trips, and the search
  // finds the bound set it finds without a governor.
  Manager m(18);
  const circuits::Benchmark bench = circuits::adder(m, 9);
  std::vector<Isf> fns;
  for (const Bdd& f : bench.outputs) fns.push_back(Isf::completely_specified(f));
  std::vector<int> order(18);
  for (int v = 0; v < 18; ++v) order[static_cast<std::size_t>(v)] = v;
  ASSERT_GT(fns.back().support().size(), static_cast<std::size_t>(tt::kMaxVars));
  std::vector<OutputView> free_views = output_views(fns);
  const BoundSetChoice free_choice = select_bound_set(free_views, order, 4, 1);
  ASSERT_FALSE(free_choice.vars.empty());
  m.garbage_collect();
  ResourceBudget tight;
  tight.node_ceiling = m.live_node_count() + 8;
  ResourceGovernor gov(tight);
  ResourceGovernor::Scope scope(gov);
  std::vector<OutputView> views = output_views(fns);
  BoundSetChoice choice;
  EXPECT_NO_THROW(choice = select_bound_set(views, order, 4, 1));
  EXPECT_EQ(choice.vars, free_choice.vars);
  EXPECT_EQ(choice.benefit, free_choice.benefit);
  EXPECT_EQ(choice.r_per_output, free_choice.r_per_output);
}

// ---------------------------------------------------------------------------
// Fault-injection harness
// ---------------------------------------------------------------------------

class FaultInjection : public ::testing::Test {
 protected:
  void TearDown() override { fault::clear(); }
};

TEST_F(FaultInjection, MalformedSpecsThrowParseErrorAndKeepPreviousSpec) {
  fault::configure("bdd.mk@18446744073709551615");  // the largest count parses
  fault::configure("bdd.mk@1000");
  EXPECT_TRUE(fault::armed());
  const char* bad[] = {"bdd.mk",          // missing @k
                       "bdd.mk@0",        // k must be >= 1
                       "bdd.mk@x",        // k not a number
                       "bdd.mk@18446744073709551616",  // k past 2^64 - 1
                       "bdd.mk@99999999999999999999999:alloc",
                       "@3",              // empty site
                       "bdd.mk@1:weird",  // unknown kind
                       "bdd.mk@1:crash",  // no such kind: nothing may abort
                       "bdd.mk@1:hang"};  // no such kind: nothing may stall
  for (const char* spec : bad) {
    try {
      fault::configure(spec);
      FAIL() << "accepted malformed spec: " << spec;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.file(), "<fault-spec>") << spec;
      EXPECT_GE(e.line(), 1) << spec;
    }
    EXPECT_TRUE(fault::armed()) << "previous spec lost after: " << spec;
  }
  fault::clear();
  EXPECT_FALSE(fault::armed());
}

TEST_F(FaultInjection, FiresAtTheKthHitExactlyOnce) {
  fault::configure("bdd.mk@3:budget");
  Manager m(4);
  int threw_at = 0;
  for (int i = 1; i <= 8 && threw_at == 0; ++i) {
    try {
      (void)(m.var(i % 4) & m.var((i + 1) % 4));  // at least one mk each
    } catch (const BudgetExceeded& e) {
      EXPECT_EQ(e.resource(), BudgetExceeded::Resource::kInjected);
      threw_at = i;
    }
  }
  EXPECT_GT(threw_at, 0) << "rule never fired";
  // One-shot: subsequent operations run clean, manager intact.
  const Bdd f = m.var(0) & m.var(1) & m.var(2);
  EXPECT_EQ(m.sat_count(f.id(), 4), 2.0);
}

TEST_F(FaultInjection, TimeoutKindWithoutGovernorThrowsTyped) {
  fault::configure("bdd.mk@1:timeout");
  Manager m(3);
  EXPECT_THROW((void)(m.var(0) | m.var(1)), BudgetExceeded);
  // Disarmed after firing; the manager still works.
  EXPECT_EQ((m.var(0) | m.var(1)).is_false(), false);
}

TEST_F(FaultInjection, AllocKindThrowsBadAlloc) {
  fault::configure("bdd.alloc@1:alloc");
  Manager m(3);
  EXPECT_THROW((void)(m.var(0) ^ m.var(2)), std::bad_alloc);
  EXPECT_EQ(m.sat_count((m.var(0) ^ m.var(2)).id(), 3), 4.0);
}

// Reordering skips the bdd.mk and bdd.alloc fault points: a throw mid-swap
// would strand the nodes being moved, and the manager would build a second
// node for a function it already holds. A rule armed for the next hit waits
// through either sift for the first node made outside it.
TEST_F(FaultInjection, SiftsSkipTheBddFaultPoints) {
  for (const char* spec : {"bdd.mk@1", "bdd.alloc@1:alloc"}) {
    for (const bool symmetric : {false, true}) {
      SCOPED_TRACE(std::string(spec) + (symmetric ? " sift_symmetric" : " sift"));
      Manager m(8);
      Rng rng(7);
      std::vector<test::Table> tables;
      std::vector<Bdd> fns;
      for (int i = 0; i < 4; ++i) {
        tables.push_back(test::random_table(rng, 8));
        fns.push_back(test::bdd_from_table(m, tables.back(), 8));
      }
      const std::uint64_t swaps = m.stats().reorder_swaps;
      fault::configure(spec);
      if (symmetric)
        EXPECT_NO_THROW(m.sift_symmetric({{0, 1}, {2, 3}}));
      else
        EXPECT_NO_THROW(m.sift());
      EXPECT_GT(m.stats().reorder_swaps, swaps) << "the sift moved no node";
      Manager fresh(1);
      EXPECT_ANY_THROW((void)fresh.var(0)) << "the sift used up the rule's hit";
      fault::clear();
      for (std::size_t i = 0; i < fns.size(); ++i)
        EXPECT_EQ(test::bdd_from_table(m, tables[i], 8), fns[i]) << "function " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: injected faults recover through the degradation ladder
// ---------------------------------------------------------------------------

SynthesisResult run_circuit(const std::string& name, const ResourceBudget& budget = {},
                            const std::string& spec = {}) {
  bdd::Manager m;
  const circuits::Benchmark bench = circuits::build(name, m);
  if (!spec.empty()) fault::configure(spec);
  SynthesisOptions opts = preset_mulop_dc(5);
  opts.budget = budget;
  return Synthesizer(opts).run(bench);
}

// Every instrumented site, hit early with the default (budget) fault: the
// ladder must absorb it and still deliver a verified network.
TEST_F(FaultInjection, EverySiteRecoversThroughTheLadder) {
  const char* specs[] = {
      "bdd.mk@1:budget",         "bdd.mk@5000:budget", "bdd.alloc@10:alloc",
      "bdd.ite@500:budget",      "util.coloring@1:budget",
      "util.coloring@1:timeout", "sym.symmetrize@1:budget",
      "decomp.boundset@1:budget", "decomp.boundset@2:timeout",
      "decomp.dc_assign@1:budget",
  };
  for (const char* spec : specs) {
    fault::clear();
    const SynthesisResult r = run_circuit("rd73", {}, spec);
    EXPECT_TRUE(r.verified) << spec;
    EXPECT_GT(r.network.count_luts(), 0) << spec;
    EXPECT_EQ(r.degradation.per_output_level.size(), 3u) << spec;
    if (r.report.counters.count("fault.fired") != 0u) {
      // The fault fired in-flow, so the ladder must have moved (budget/alloc
      // kinds) or the deadline cut optimization short (timeout kind).
      EXPECT_GE(r.report.counters.at("fault.fired"), 1u) << spec;
    }
  }
  fault::clear();
  // Flow state intact: a clean run right after the fault storm is pristine.
  const SynthesisResult clean = run_circuit("rd73");
  EXPECT_TRUE(clean.verified);
  EXPECT_FALSE(clean.degradation.degraded());
  EXPECT_TRUE(clean.degradation.events.empty());
}

// Every flow's decomposition sifts its manager (once per portfolio entry;
// the first entry sifts before it makes a node). Sweep both BDD fault points
// over every ordinal the flow reaches: each fault must recover through the
// ladder into an exact network. The test verifies after clearing the
// rules, since a fault fired inside the flow's own verification surfaces
// as an error instead (see the next test). clip's flow reaches 140 bdd.mk
// and 96 bdd.alloc ordinals (rd73's only 44 and 40).
TEST_F(FaultInjection, OrdinalSweepAcrossTheSeedSiftStaysExact) {
  SynthesisOptions opts = preset_mulop_dc(5);
  opts.verify = false;
  for (const std::string site : {"bdd.mk@", "bdd.alloc@"}) {
    int fired_runs = 0;
    for (int k = 1;; ++k) {
      const std::string rule =
          site + std::to_string(k) + (site == "bdd.alloc@" ? ":alloc" : "");
      bdd::Manager m;
      const circuits::Benchmark bench = circuits::build("clip", m);
      std::vector<Isf> spec;
      for (const Bdd& f : bench.outputs) spec.push_back(Isf::completely_specified(f));
      std::vector<int> pis;
      for (int i = 0; i < bench.num_inputs; ++i) pis.push_back(i);
      fault::configure(rule);
      const SynthesisResult r = Synthesizer(opts).run(spec, pis, bench.name);
      fault::clear();
      ASSERT_GE(r.report.counters.count("decomp.sift_runs"), 1u) << rule;
      if (r.report.counters.count("fault.fired") == 0u) break;
      ++fired_runs;
      std::string error;
      EXPECT_TRUE(net::check_exact(r.network, spec, pis, &error)) << rule << ": " << error;
    }
    EXPECT_GE(fired_runs, 50) << site;
  }
}

// With verification on, an allocation fault can also fire inside the flow's
// own exact check, past the ladder. Every bdd.alloc ordinal the flow reaches
// must end in a verified network or a typed mfd::Error, never in a raw
// std::bad_alloc.
TEST_F(FaultInjection, AllocOrdinalSweepWithVerificationStaysTyped) {
  int fired_runs = 0, typed = 0;
  for (int k = 1;; ++k) {
    const std::string rule = "bdd.alloc@" + std::to_string(k) + ":alloc";
    bool fired = true;
    try {
      const SynthesisResult r = run_circuit("rd73", {}, rule);
      EXPECT_TRUE(r.verified) << rule;
      fired = r.report.counters.count("fault.fired") != 0u;
    } catch (const Error&) {
      ++typed;
    } catch (const std::bad_alloc&) {
      ADD_FAILURE() << rule << ": raw std::bad_alloc out of Synthesizer::run";
    }
    fault::clear();
    if (!fired) break;
    ++fired_runs;
  }
  EXPECT_GE(fired_runs, 50);
  EXPECT_GT(typed, 0) << "no fault fired inside verification";
}

// A fault firing *before* the ladder exists (here: during the benchmark's
// ISF conversion, ahead of decompose) cannot recover — but it must surface
// as a typed error, never a crash, and leave the flow reusable.
TEST_F(FaultInjection, FaultOutsideTheLadderSurfacesTypedError) {
  try {
    (void)run_circuit("rd73", {}, "bdd.ite@1:budget");
    // Acceptable: the first ite happened inside the ladder and recovered.
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.resource(), BudgetExceeded::Resource::kInjected);
  }
  fault::clear();
  const SynthesisResult clean = run_circuit("rd73");
  EXPECT_TRUE(clean.verified);
}

TEST_F(FaultInjection, InjectedBudgetFaultIsAttributedInTheReport) {
  // rd73's flow reaches 44 bdd.mk ordinals; a later one fires in
  // verification, which surfaces as an error, not as a degradation.
  const SynthesisResult r = run_circuit("rd73", {}, "bdd.mk@20:budget");
  ASSERT_TRUE(r.verified);
  ASSERT_TRUE(r.degradation.degraded());
  ASSERT_FALSE(r.degradation.events.empty());
  EXPECT_EQ(r.degradation.events.size(), 1u);
  EXPECT_EQ(r.degradation.final_level, kDegradeStructural);
  EXPECT_NE(r.degradation.events[0].reason.find("injected"), std::string::npos);
  EXPECT_GE(r.report.counters.at("fault.fired"), 1u);
}

// ---------------------------------------------------------------------------
// Tight budgets: degrade, never crash
// ---------------------------------------------------------------------------

TEST(TightBudget, NodeCeilingStillYieldsVerifiedNetwork) {
  ResourceBudget b;
  b.node_ceiling = 2000;
  const SynthesisResult r = run_circuit("rd84", b);
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.network.count_luts(), 0);
  EXPECT_EQ(r.degradation.per_output_level.size(), 4u);
  for (int level : r.degradation.per_output_level) {
    EXPECT_GE(level, kDegradeFull);
    EXPECT_LE(level, kDegradeStructural);
  }
}

// f51m's depth-0 attempt trips a 500-node ceiling, so the structural floor
// emits the whole network. The stats describe the emitted network: the
// aborted attempt's decomposition step is not among them (the decomp.steps
// counter, which counts attempted work, keeps it).
TEST(TightBudget, AbortedAttemptCountsNoDecompositionStep) {
  ResourceBudget b;
  b.node_ceiling = 500;
  const SynthesisResult r = run_circuit("f51m", b);
  EXPECT_TRUE(r.verified);
  ASSERT_EQ(r.degradation.events.size(), 1u);
  EXPECT_EQ(r.degradation.events[0].phase, "decomp.synth@d=0");
  EXPECT_EQ(r.stats.decomposition_steps, 0);
  EXPECT_EQ(r.stats.total_decomposition_functions, 0);
  EXPECT_EQ(r.stats.sum_r, 0);
  EXPECT_GE(r.report.counters.at("decomp.steps"), 1u);
}

// The node ceiling charges the manager's whole population, garbage
// included. Above the growth rule's 2^16 floor the population cannot double
// without a collection, so a ceiling there pays for the live nodes and at
// most as much garbage. C880 mulopII's odc_resubst leaves its garbage behind
// too few dead roots for the dead-root rule; without the growth rule it
// trips a 200 000-node ceiling and the pass aborts (98 LUTs instead of 96).
// With it, the run ends in the same network as without a ceiling.
TEST(TightBudget, NodeCeilingAboveTheGrowthFloorPaysNoGarbage) {
  auto run = [](std::size_t node_ceiling) {
    bdd::Manager m;
    const circuits::Benchmark bench = circuits::build("C880", m);
    SynthesisOptions opts = preset_mulopII(5);
    opts.budget.node_ceiling = node_ceiling;
    return Synthesizer(opts).run(bench);
  };
  const SynthesisResult r = run(200000);
  EXPECT_TRUE(r.verified);
  EXPECT_TRUE(r.degradation.events.empty());
  EXPECT_EQ(r.report.counters.count("budget.exceeded_nodes"), 0u);
  EXPECT_EQ(r.report.counters.count("pass.odc.budget_aborts"), 0u);
  EXPECT_TRUE(r.network == run(0).network);
}

// The passes read the installed governor, the one every BDD mk charges, and
// not PassContext::governor: once the installed governor degrades, the
// pipeline drops odc_resubst even though the context names an unlimited one.
TEST(TightBudget, PipelineReadsTheInstalledGovernor) {
  bdd::Manager m;
  const circuits::Benchmark bench = circuits::build("rd84", m);
  std::vector<Isf> spec;
  for (const Bdd& f : bench.outputs) spec.push_back(Isf::completely_specified(f));
  std::vector<int> pis;
  for (int i = 0; i < bench.num_inputs; ++i) pis.push_back(i);
  const SynthesisOptions opts = preset_mulop_dc(5);
  ResourceBudget b;
  b.node_ceiling = 100;
  ResourceGovernor installed(b);
  ResourceGovernor unlimited;
  ResourceGovernor::Scope scope(installed);
  net::PassContext ctx;
  ctx.manager = &m;
  ctx.spec = &spec;
  ctx.pi_vars = &pis;
  ctx.options = &opts;
  ctx.governor = &unlimited;
  net::LutNetwork net;
  const std::vector<net::PassStats> trail = build_pipeline("", opts).run(net, ctx);
  EXPECT_TRUE(installed.report().degraded());
  ASSERT_EQ(trail.size(), 4u);
  EXPECT_EQ(trail[2].name, "odc_resubst");
  EXPECT_FALSE(trail[2].ran);
  EXPECT_EQ(trail[2].skip_reason, "degraded");
}

TEST(TightBudget, TimeBudgetStillYieldsVerifiedNetwork) {
  ResourceBudget b;
  b.time_ms = 1.0;  // brutally tight: forces the ladder to its floor
  const SynthesisResult r = run_circuit("rd84", b);
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.network.count_luts(), 0);
}

TEST(TightBudget, UnlimitedBudgetDoesNotDegrade) {
  const SynthesisResult r = run_circuit("rd73");
  EXPECT_TRUE(r.verified);
  EXPECT_FALSE(r.degradation.degraded());
  EXPECT_EQ(r.degradation.final_level, kDegradeFull);
  for (int level : r.degradation.per_output_level) EXPECT_EQ(level, kDegradeFull);
}

// Standalone decompose() (no synthesizer, no explicit governor) installs its
// own unlimited governor, so injected faults recover through the same ladder.
TEST_F(FaultInjection, StandaloneDecomposeRecovers) {
  bdd::Manager m;
  const circuits::Benchmark bench = circuits::build("rd73", m);
  std::vector<Isf> spec;
  for (const Bdd& f : bench.outputs) spec.push_back(Isf::completely_specified(f));
  std::vector<int> pis;
  for (int i = 0; i < bench.num_inputs; ++i) pis.push_back(i);
  fault::configure("decomp.boundset@1:budget");
  DecomposeStats stats;
  const net::LutNetwork net = decompose(spec, pis, preset_mulop_dc(5).decomp, &stats);
  EXPECT_GT(net.count_luts(), 0);
  EXPECT_EQ(stats.output_degrade_level.size(), spec.size());
}

}  // namespace
}  // namespace mfd
