// The multiplicity cache (src/cache/, docs/CACHING.md): canonical
// signatures, keys, the LRU store, and the determinism contract — cached and
// uncached runs must be bit-identical.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "cache/signature.h"
#include "circuits/circuits.h"
#include "core/synthesizer.h"
#include "decomp/boundset.h"
#include "obs/obs.h"
#include "testlib.h"
#include "util/rng.h"

namespace mfd {
namespace {

using bdd::Bdd;
using bdd::Edge;
using bdd::Manager;

/// Every test starts from a fresh default configuration and leaves the
/// process-wide store empty (it is shared across the whole binary).
class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override { cache::configure(cache::CacheConfig{}); }
  void TearDown() override { cache::configure(cache::CacheConfig{}); }
};

/// The cache off: a zero byte budget.
cache::CacheConfig cache_off() {
  cache::CacheConfig c;
  c.max_bytes = 0;
  return c;
}

// ---------------------------------------------------------------------------
// Signatures
// ---------------------------------------------------------------------------

TEST_F(CacheTest, SignatureComplementPairsCollideOnlyUnderNormalization) {
  Manager m(4);
  Rng rng(7);
  cache::SignatureComputer sig(m);
  for (int round = 0; round < 20; ++round) {
    const Bdd f = test::bdd_from_table(m, test::random_table(rng, 4), 4);
    if (f.is_true() || f.is_false()) continue;
    const Edge e = f.id();
    // Raw signatures distinguish f from !f ...
    EXPECT_NE(sig.of(e), sig.of(!e));
    // ... normalized ones collide on the raw signature of exactly one of
    // the pair.
    EXPECT_EQ(sig.of_normalized(e), sig.of_normalized(!e));
    EXPECT_NE(sig.of_normalized(e) == sig.of(e), sig.of_normalized(!e) == sig.of(!e));
  }
}

TEST_F(CacheTest, SignatureIsInvariantUnderReordering) {
  Manager m(5);
  Rng rng(11);
  const Bdd f = test::bdd_from_table(m, test::random_table(rng, 5), 5);
  cache::SignatureComputer before(m);
  const cache::FunctionSignature sb = before.of(f.id());

  m.set_order({4, 2, 0, 3, 1});
  cache::SignatureComputer after(m);
  EXPECT_EQ(sb, after.of(f.id()));
}

TEST_F(CacheTest, SignatureIsManagerIndependent) {
  Rng rng_a(3);
  Manager ma(4);
  Manager mb(4);
  // Same function built in two managers (and some noise in mb first, so the
  // node indices genuinely differ).
  const test::Table t = test::random_table(rng_a, 4);
  Rng rng_noise(99);
  (void)test::bdd_from_table(mb, test::random_table(rng_noise, 4), 4);
  const Bdd fa = test::bdd_from_table(ma, t, 4);
  const Bdd fb = test::bdd_from_table(mb, t, 4);

  cache::SignatureComputer sa(ma);
  cache::SignatureComputer sb(mb);
  EXPECT_EQ(sa.of(fa.id()), sb.of(fb.id()));
}

TEST_F(CacheTest, DistinctFunctionsGetDistinctSignatures) {
  Manager m(5);
  Rng rng(13);
  cache::SignatureComputer sig(m);
  std::vector<cache::FunctionSignature> seen;
  for (int round = 0; round < 50; ++round) {
    const Bdd f = test::bdd_from_table(m, test::random_table(rng, 5), 5);
    seen.push_back(sig.of(f.id()));
  }
  // Some tables repeat by chance; dedupe by table first.
  // (Simply: pairwise distinct signatures whenever the edges are distinct.)
  std::vector<Edge> edges;
  Rng rng2(13);
  for (int round = 0; round < 50; ++round)
    edges.push_back(test::bdd_from_table(m, test::random_table(rng2, 5), 5).id());
  for (std::size_t i = 0; i < edges.size(); ++i)
    for (std::size_t j = i + 1; j < edges.size(); ++j)
      if (edges[i] != edges[j]) {
        EXPECT_NE(seen[i], seen[j]) << i << "," << j;
      }
}

// ---------------------------------------------------------------------------
// Multiplicity keys
// ---------------------------------------------------------------------------

TEST_F(CacheTest, MultiplicityKeysNormalizeCompleteFunctionPolarity) {
  Manager m(4);
  Rng rng(17);
  cache::SignatureComputer sig(m);
  const Bdd f0 = test::bdd_from_table(m, test::random_table(rng, 4), 4);
  const Bdd f1 = test::bdd_from_table(m, test::random_table(rng, 4), 4);
  const Edge t = bdd::kTrue;
  const std::vector<int> bound = {0, 1, 2};

  // Complementing a completely specified function complements its cofactors
  // element-wise — class counts and sharing counts are unchanged, so f and
  // !f (per function, independently) share the key.
  const std::vector<std::pair<Edge, Edge>> pos = {{f0.id(), t}, {f1.id(), t}};
  const std::vector<std::pair<Edge, Edge>> neg = {{!f0.id(), t}, {!f1.id(), t}};
  const std::vector<std::pair<Edge, Edge>> mixed = {{!f0.id(), t}, {f1.id(), t}};
  EXPECT_EQ(cache::multiplicity_key(sig, pos, bound, 1),
            cache::multiplicity_key(sig, neg, bound, 1));
  EXPECT_EQ(cache::multiplicity_key(sig, pos, bound, 1),
            cache::multiplicity_key(sig, mixed, bound, 1));

  // Distinct functions and distinct bound sets keep distinct keys.
  if (f0 != f1 && f0 != !f1) {
    const std::vector<std::pair<Edge, Edge>> swapped = {{f1.id(), t}, {f0.id(), t}};
    EXPECT_NE(cache::multiplicity_key(sig, pos, bound, 1),
              cache::multiplicity_key(sig, swapped, bound, 1));
  }
  EXPECT_NE(cache::multiplicity_key(sig, pos, bound, 1),
            cache::multiplicity_key(sig, pos, {0, 1, 3}, 1));
  EXPECT_NE(cache::multiplicity_key(sig, pos, bound, 1),
            cache::multiplicity_key(sig, pos, {2, 1, 0}, 1));
}

TEST_F(CacheTest, IsfKeysKeepSeedAndPolarity) {
  Manager m(4);
  Rng rng(23);
  cache::SignatureComputer sig(m);
  const Bdd on = test::bdd_from_table(m, test::random_table(rng, 4), 4);
  const Bdd care = on | test::bdd_from_table(m, test::random_table(rng, 4), 4);
  const std::vector<int> bound = {0, 1};
  const std::vector<std::pair<Edge, Edge>> isf = {{(on & care).id(), care.id()}};

  // ISF coloring uses the seed: it is part of the key.
  EXPECT_NE(cache::multiplicity_key(sig, isf, bound, 1),
            cache::multiplicity_key(sig, isf, bound, 2));
  // And ISF keys are not edge-complement normalized (the complement of an
  // ISF is off = care & !on, not an edge flip).
  const std::vector<std::pair<Edge, Edge>> flipped = {{(!(on & care)).id(), care.id()}};
  EXPECT_NE(cache::multiplicity_key(sig, isf, bound, 1),
            cache::multiplicity_key(sig, flipped, bound, 1));
}

// ---------------------------------------------------------------------------
// The LRU store
// ---------------------------------------------------------------------------

/// The store's estimate of its current footprint.
double store_bytes() {
  cache::publish_stats();
  return obs::gauge_value("cache.bytes");
}

/// A budget of `n` entries of `entry_bytes` each.
cache::CacheConfig budget_of(int n, double entry_bytes) {
  cache::CacheConfig c;
  c.max_bytes = static_cast<std::size_t>(n * entry_bytes);
  return c;
}

TEST_F(CacheTest, LruEvictsOldestFirstAndKeepsRecentlyUsed) {
  // Keys of one length and scores of one shape: entries of one size.
  auto key = [](std::uint64_t x) { return std::vector<std::uint64_t>{x, 1, 2, 3}; };
  const cache::CandidateScores scores{5, 1, 4, {2, 2}};
  cache::insert(key(0), scores);
  const double entry_bytes = store_bytes();
  ASSERT_GT(entry_bytes, 0.0);

  cache::configure(budget_of(3, entry_bytes));
  obs::reset();
  cache::insert(key(1), scores);
  cache::insert(key(2), scores);
  cache::insert(key(3), scores);
  EXPECT_EQ(store_bytes(), 3 * entry_bytes);

  // Touch 1 so 2 becomes the least recently used entry, then overflow.
  EXPECT_TRUE(cache::lookup(key(1)).has_value());
  cache::insert(key(4), scores);
  EXPECT_EQ(obs::counter_value("cache.multiplicity.evictions"), 1u);
  EXPECT_FALSE(cache::lookup(key(2)).has_value());  // evicted
  const std::optional<cache::CandidateScores> kept = cache::lookup(key(1));
  ASSERT_TRUE(kept.has_value());  // survived (recently used)
  EXPECT_EQ(kept->benefit, scores.benefit);
  EXPECT_EQ(kept->sharing_gap, scores.sharing_gap);
  EXPECT_EQ(kept->sum_r, scores.sum_r);
  EXPECT_EQ(kept->r_per_output, scores.r_per_output);
  EXPECT_TRUE(cache::lookup(key(4)).has_value());

  // An entry larger than the whole budget is never stored.
  cache::insert(key(5), {0, 0, 0, std::vector<int>(1 << 20)});
  EXPECT_FALSE(cache::lookup(key(5)).has_value());
  EXPECT_EQ(obs::counter_value("cache.multiplicity.evictions"), 1u);
}

TEST_F(CacheTest, StoreOfFewEntriesEvictsTheLeastRecentlyUsed) {
  // Only the flow's own surface: configure, evaluate_bound_set and the obs
  // counters. Candidates over rd53's outputs with bound sets of one size
  // make entries of one size; one of them measures it.
  Manager m(6);
  const circuits::Benchmark bench = circuits::build("rd53", m);
  std::vector<Isf> fns;
  for (const Bdd& f : bench.outputs) fns.push_back(Isf::completely_specified(f));
  std::vector<std::vector<int>> supports;
  for (const Isf& f : fns) supports.push_back(f.support());
  cache::SignatureComputer sig(m);
  auto score = [&](const std::vector<std::vector<int>>& bounds) {
    for (const std::vector<int>& b : bounds)
      (void)evaluate_bound_set(fns, supports, b, 1, &sig);
  };
  const std::vector<int> a = {0, 1, 2}, b = {0, 1, 3}, c = {0, 1, 4}, d = {0, 2, 3},
                         e = {0, 2, 4};
  score({a});
  const double entry_bytes = store_bytes();
  ASSERT_GT(entry_bytes, 0.0);

  // The whole budget bounds one store: a budget of four entries holds four.
  cache::configure(budget_of(4, entry_bytes));
  obs::reset();
  score({a, b, c, d});
  EXPECT_EQ(obs::counter_value("cache.multiplicity.misses"), 4u);
  score({a, b, c, d});  // a is now the least recently used entry
  EXPECT_EQ(obs::counter_value("cache.multiplicity.hits"), 4u);
  EXPECT_EQ(obs::counter_value("cache.multiplicity.evictions"), 0u);

  // One more candidate evicts exactly a.
  score({e});
  EXPECT_EQ(obs::counter_value("cache.multiplicity.misses"), 5u);
  EXPECT_EQ(obs::counter_value("cache.multiplicity.evictions"), 1u);
  score({b, c, d, e});
  EXPECT_EQ(obs::counter_value("cache.multiplicity.hits"), 8u);
  score({a});
  EXPECT_EQ(obs::counter_value("cache.multiplicity.misses"), 6u);
}

TEST_F(CacheTest, TinyCapacityFlowStillBitIdentical) {
  // A zero byte budget turns the cache off and must not change results:
  // nothing is keyed, looked up or stored.
  cache::configure(cache_off());
  Manager m1(8);
  const SynthesisResult a = Synthesizer().run(circuits::build("rd73", m1));
  EXPECT_EQ(a.report.gauges.at("cache.entries"), 0.0);
  EXPECT_EQ(a.report.gauges.at("cache.bytes"), 0.0);
  for (const auto& [name, value] : a.report.counters)
    EXPECT_NE(name.rfind("cache.multiplicity.", 0), 0u) << name << " = " << value;

  cache::configure(cache::CacheConfig{});
  Manager m2(8);
  const SynthesisResult b = Synthesizer().run(circuits::build("rd73", m2));
  EXPECT_EQ(a.network.to_string(), b.network.to_string());
  EXPECT_GT(b.report.counters.at("cache.multiplicity.misses"), 0u);
}

// ---------------------------------------------------------------------------
// Multiplicity cache: hits equal recomputation
// ---------------------------------------------------------------------------

TEST_F(CacheTest, CachedBoundSetScoresEqualUncachedOnes) {
  Manager m(6);
  const circuits::Benchmark bench = circuits::build("rd53", m);
  std::vector<Isf> fns;
  for (const Bdd& f : bench.outputs) fns.push_back(Isf::completely_specified(f));
  std::vector<std::vector<int>> supports;
  for (const Isf& f : fns) supports.push_back(f.support());
  const std::vector<int> bound = {0, 1, 2};

  const BoundSetChoice plain = evaluate_bound_set(fns, supports, bound, 1, nullptr);

  obs::reset();
  cache::SignatureComputer sig(m);
  const BoundSetChoice first = evaluate_bound_set(fns, supports, bound, 1, &sig);
  const BoundSetChoice again = evaluate_bound_set(fns, supports, bound, 1, &sig);
  const obs::Report report = obs::collect();

  for (const BoundSetChoice* c : {&first, &again}) {
    EXPECT_EQ(plain.benefit, c->benefit);
    EXPECT_EQ(plain.sharing_gap, c->sharing_gap);
    EXPECT_EQ(plain.sum_r, c->sum_r);
    EXPECT_EQ(plain.r_per_output, c->r_per_output);
  }
  // The repeat evaluation is one whole-candidate hit.
  ASSERT_NE(report.counters.count("cache.multiplicity.hits"), 0u);
  EXPECT_GE(report.counters.at("cache.multiplicity.hits"), 1u);
}

TEST_F(CacheTest, MemoSafeRefusesBudgetedDegradedOrFaultyRuns) {
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
    gov.raise_degrade(kDegradeFull + 1, "test", "test");
    EXPECT_FALSE(cache::memo_safe(&gov));
  }
}

// ---------------------------------------------------------------------------
// Differential: cache on vs off bit-identity
// ---------------------------------------------------------------------------

struct FlowOutcome {
  std::string network;
  int clb_greedy = 0;
  int clb_matching = 0;
  bool verified = false;
  bool every_pass_ran = false;
};

FlowOutcome run_once(const std::string& circuit) {
  Manager m;
  const circuits::Benchmark bench = circuits::build(circuit, m);
  const SynthesisResult r = Synthesizer().run(bench);
  FlowOutcome out;
  out.network = r.network.to_string();
  out.clb_greedy = r.clb_greedy.num_clbs;
  out.clb_matching = r.clb_matching.num_clbs;
  out.verified = r.verified;
  out.every_pass_ran = !r.passes.empty();
  for (const net::PassStats& p : r.passes) out.every_pass_ran &= p.ran;
  return out;
}

TEST_F(CacheTest, CachedRunsAreBitIdenticalToUncached) {
  for (const char* circuit : {"rd53", "rd73", "z4ml"}) {
    cache::configure(cache_off());
    const FlowOutcome baseline = run_once(circuit);
    ASSERT_TRUE(baseline.verified) << circuit;

    cache::configure(cache::CacheConfig{});
    const FlowOutcome cold = run_once(circuit);
    // The warm repeat is served partly from the multiplicity cache, but
    // every pass still runs on it: no pass is ever replayed from a cache.
    const FlowOutcome warm = run_once(circuit);

    EXPECT_EQ(baseline.network, cold.network) << circuit;
    EXPECT_EQ(baseline.network, warm.network) << circuit;
    EXPECT_EQ(baseline.clb_greedy, cold.clb_greedy);
    EXPECT_EQ(baseline.clb_matching, cold.clb_matching);
    EXPECT_EQ(baseline.clb_greedy, warm.clb_greedy);
    EXPECT_EQ(baseline.clb_matching, warm.clb_matching);
    EXPECT_TRUE(cold.verified);
    EXPECT_TRUE(warm.verified);
    EXPECT_TRUE(warm.every_pass_ran) << circuit;
  }
}

// ---------------------------------------------------------------------------
// Degenerate specs: constants, zero-variable managers, all-DC ISFs, and
// duplicate outputs — the shapes the fuzz generator (src/verify/) skews
// toward. Each must key distinctly; a collision here would silently hand one
// spec another spec's cached bound-set scores.
// ---------------------------------------------------------------------------

TEST_F(CacheTest, SignatureSeparatesConstantsOnZeroVarManager) {
  Manager m(0);  // no variables: only the two constant functions exist
  cache::SignatureComputer sig(m);
  const cache::FunctionSignature one = sig.of(m.constant(true).id());
  const cache::FunctionSignature zero = sig.of(m.constant(false).id());
  EXPECT_EQ(one, (cache::FunctionSignature{1, 1}));
  EXPECT_EQ(zero, (cache::FunctionSignature{0, 0}));
  EXPECT_NE(one, zero);
  // Normalization folds the pair onto one representative: the raw
  // signature of exactly one of them.
  const cache::FunctionSignature rep = sig.of_normalized(m.constant(true).id());
  EXPECT_EQ(rep, sig.of_normalized(m.constant(false).id()));
  EXPECT_NE(rep == one, rep == zero);
}

TEST_F(CacheTest, MultiplicityKeySeparatesDegenerateCarePlanes) {
  Manager m(3);
  cache::SignatureComputer sig(m);
  const Edge t = m.constant(true).id();
  const Edge f = m.constant(false).id();
  const Edge x0 = m.var(0).id();
  const std::vector<int> bound = {0, 1};

  // Complete constants are complement-normalized by design — const-0 and
  // const-1 *share* an entry (class counts are complement-invariant) — but
  // the all-DC ISF (care == 0) is a different problem and must key apart
  // from both even though every plane involved is a constant.
  const auto k_one = cache::multiplicity_key(sig, {{t, t}}, bound, 5);
  const auto k_zero = cache::multiplicity_key(sig, {{f, t}}, bound, 5);
  const auto k_alldc = cache::multiplicity_key(sig, {{f, f}}, bound, 5);
  EXPECT_EQ(k_one, k_zero);  // intentional complement sharing
  EXPECT_NE(k_one, k_alldc);
  EXPECT_NE(k_zero, k_alldc);

  // A completely specified x0 and the ISF whose care set happens to be x0
  // describe different problems; the complete/ISF marker must separate them
  // even when the raw edges involved coincide.
  const auto k_complete = cache::multiplicity_key(sig, {{x0, t}}, bound, 5);
  const auto k_isf = cache::multiplicity_key(sig, {{x0, x0}}, bound, 5);
  EXPECT_NE(k_complete, k_isf);
}

TEST_F(CacheTest, MultiplicityKeyDuplicateOutputsAndArityAreDistinct) {
  Manager m(3);
  cache::SignatureComputer sig(m);
  const Edge t = m.constant(true).id();
  const Edge x0 = m.var(0).id();
  const std::vector<int> bound = {0, 1};

  // One output vs the same output listed twice (duplicate-output specs are a
  // generator staple): the key must encode the multiplicity, not a set.
  const auto k_single = cache::multiplicity_key(sig, {{x0, t}}, bound, 5);
  const auto k_double = cache::multiplicity_key(sig, {{x0, t}, {x0, t}}, bound, 5);
  EXPECT_NE(k_single, k_double);

  // Same functions, different bound set or seed -> different entries.
  const auto k_bound = cache::multiplicity_key(sig, {{x0, t}}, {0, 2}, 5);
  EXPECT_NE(k_single, k_bound);
  const auto k_seed = cache::multiplicity_key(sig, {{t, t}}, bound, 6);
  const auto k_seed5 = cache::multiplicity_key(sig, {{t, t}}, bound, 5);
  EXPECT_NE(k_seed, k_seed5);
}

TEST_F(CacheTest, SignatureOfDuplicateFunctionsAgreesAcrossManagers) {
  // Duplicate outputs in a spec hash to the same signature even when built
  // in different managers — the fresh manager of every run relies on this
  // to share multiplicity-cache entries with earlier runs.
  Manager ma(4);
  Manager mb(4);
  Rng rng(23);
  const test::Table table = test::random_table(rng, 4);
  const Bdd fa = test::bdd_from_table(ma, table, 4);
  const Bdd fb = test::bdd_from_table(mb, table, 4);
  cache::SignatureComputer sa(ma);
  cache::SignatureComputer sb(mb);
  EXPECT_EQ(sa.of(fa.id()), sb.of(fb.id()));
  EXPECT_EQ(sa.of(fa.id()), sa.of(fa.id()));  // memoized path agrees
}

}  // namespace
}  // namespace mfd
