// The multiplicity cache (src/cache/, docs/CACHING.md): canonical
// signatures, function-set keys, the store of sets and their records, and
// the determinism contract — cached and uncached runs must be bit-identical.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
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

/// Every test starts from a fresh default configuration and leaves the main
/// thread's store empty (every test of the binary runs on that thread).
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
// Multiplicity keys: a function set shared by a search's candidates, and the
// bound of each candidate
// ---------------------------------------------------------------------------

using Fns = std::vector<std::pair<Edge, Edge>>;

/// The key words of the function set of `fns` under `seed`.
std::vector<std::uint64_t> set_words(cache::SignatureComputer& sig, const Fns& fns,
                                     std::uint64_t seed) {
  return cache::function_set(sig, fns, seed).words;
}

/// Scores of a set of `outputs` functions, every code length `r`.
cache::CandidateScores scores_of(std::size_t outputs, int r = 2) {
  return {5, 1, static_cast<long>(outputs) * r, std::vector<int>(outputs, r)};
}

TEST_F(CacheTest, MultiplicityKeysNormalizeCompleteFunctionPolarity) {
  Manager m(4);
  Rng rng(17);
  cache::SignatureComputer sig(m);
  const Bdd f0 = test::bdd_from_table(m, test::random_table(rng, 4), 4);
  const Bdd f1 = test::bdd_from_table(m, test::random_table(rng, 4), 4);
  const Edge t = bdd::kTrue;

  // Complementing a completely specified function complements its cofactors
  // element-wise — class counts and sharing counts are unchanged, so f and
  // !f (per function, independently) share the set.
  const Fns pos = {{f0.id(), t}, {f1.id(), t}};
  const Fns neg = {{!f0.id(), t}, {!f1.id(), t}};
  const Fns mixed = {{!f0.id(), t}, {f1.id(), t}};
  EXPECT_EQ(set_words(sig, pos, 1), set_words(sig, neg, 1));
  EXPECT_EQ(set_words(sig, pos, 1), set_words(sig, mixed, 1));
  EXPECT_EQ(cache::function_set(sig, pos, 1).digest, cache::function_set(sig, neg, 1).digest);

  // Distinct functions keep distinct sets.
  if (f0 != f1 && f0 != !f1) {
    const Fns swapped = {{f1.id(), t}, {f0.id(), t}};
    EXPECT_NE(set_words(sig, pos, 1), set_words(sig, swapped, 1));
  }

  // Within a set, the bound is compared in full and in candidate order: a
  // complemented set finds the record, another bound set or the same
  // variables in another order do not.
  const std::vector<int> bound = {0, 1, 2};
  cache::insert(cache::function_set(sig, pos, 1), bound, scores_of(2));
  EXPECT_TRUE(cache::lookup(cache::function_set(sig, neg, 1), bound).has_value());
  EXPECT_FALSE(cache::lookup(cache::function_set(sig, pos, 1), {0, 1, 3}).has_value());
  EXPECT_FALSE(cache::lookup(cache::function_set(sig, pos, 1), {2, 1, 0}).has_value());
  EXPECT_FALSE(cache::lookup(cache::function_set(sig, pos, 1), {0, 1}).has_value());
}

TEST_F(CacheTest, IsfKeysKeepSeedAndPolarity) {
  Manager m(4);
  Rng rng(23);
  cache::SignatureComputer sig(m);
  const Bdd on = test::bdd_from_table(m, test::random_table(rng, 4), 4);
  const Bdd care = on | test::bdd_from_table(m, test::random_table(rng, 4), 4);
  const Fns isf = {{(on & care).id(), care.id()}};

  // ISF coloring uses the seed: it is part of the set.
  EXPECT_NE(set_words(sig, isf, 1), set_words(sig, isf, 2));
  // And ISF sets are not edge-complement normalized (the complement of an
  // ISF is off = care & !on, not an edge flip).
  const Fns flipped = {{(!(on & care)).id(), care.id()}};
  EXPECT_NE(set_words(sig, isf, 1), set_words(sig, flipped, 1));

  // A record stored under one seed is not found under another.
  cache::insert(cache::function_set(sig, isf, 1), {0, 1}, scores_of(1));
  EXPECT_TRUE(cache::lookup(cache::function_set(sig, isf, 1), {0, 1}).has_value());
  EXPECT_FALSE(cache::lookup(cache::function_set(sig, isf, 2), {0, 1}).has_value());
  EXPECT_FALSE(cache::lookup(cache::function_set(sig, flipped, 1), {0, 1}).has_value());
}

// ---------------------------------------------------------------------------
// The store: sets evicted whole, least recently used first
// ---------------------------------------------------------------------------

/// The store's estimate of its current footprint.
double store_bytes() {
  cache::publish_stats();
  return obs::gauge_value("cache.bytes");
}

/// A budget of `n` sets of `set_bytes` each.
cache::CacheConfig budget_of(int n, double set_bytes) {
  cache::CacheConfig c;
  c.max_bytes = static_cast<std::size_t>(n * set_bytes);
  return c;
}

TEST_F(CacheTest, LruEvictsOldestFirstAndKeepsRecentlyUsed) {
  // Distinct seeds give distinct sets of one shape: with one record each,
  // sets of one size.
  Manager m(4);
  cache::SignatureComputer sig(m);
  const Fns fns = {{m.var(0).id(), bdd::kTrue}, {(m.var(1) ^ m.var(2)).id(), bdd::kTrue}};
  auto set = [&](std::uint64_t seed) { return cache::function_set(sig, fns, seed); };
  const std::vector<int> bound = {0, 1};
  const cache::CandidateScores scores{5, 1, 4, {2, 2}};
  cache::insert(set(0), bound, scores);
  const double set_bytes = store_bytes();
  ASSERT_GT(set_bytes, 0.0);

  cache::configure(budget_of(3, set_bytes));
  obs::reset();
  cache::insert(set(1), bound, scores);
  cache::insert(set(2), bound, scores);
  cache::insert(set(3), bound, scores);
  EXPECT_EQ(store_bytes(), 3 * set_bytes);

  // Touch 1 so 2 becomes the least recently used set, then overflow.
  EXPECT_TRUE(cache::lookup(set(1), bound).has_value());
  cache::insert(set(4), bound, scores);
  EXPECT_EQ(obs::counter_value("cache.multiplicity.evictions"), 1u);
  EXPECT_FALSE(cache::lookup(set(2), bound).has_value());  // evicted
  const std::optional<cache::CandidateScores> kept = cache::lookup(set(1), bound);
  ASSERT_TRUE(kept.has_value());  // survived (recently used)
  EXPECT_EQ(kept->benefit, scores.benefit);
  EXPECT_EQ(kept->sharing_gap, scores.sharing_gap);
  EXPECT_EQ(kept->sum_r, scores.sum_r);
  EXPECT_EQ(kept->r_per_output, scores.r_per_output);
  EXPECT_TRUE(cache::lookup(set(4), bound).has_value());
  EXPECT_LE(store_bytes(), 3 * set_bytes);

  // Growing set 4 evicts the other sets whole, the least recently used
  // first: 3, then 1, each with its one record.
  auto sets_held = [] {
    cache::publish_stats();
    return obs::gauge_value("cache.sets");
  };
  std::vector<std::vector<int>> grown;
  auto grow_set_4_until = [&](double sets) {
    while (sets_held() > sets) {
      const int i = static_cast<int>(grown.size());
      grown.push_back({100 + i, 200 + i});
      cache::insert(set(4), grown.back(), scores);
    }
  };
  grow_set_4_until(2);
  EXPECT_EQ(obs::counter_value("cache.multiplicity.evictions"), 2u);
  EXPECT_FALSE(cache::lookup(set(3), bound).has_value());
  EXPECT_TRUE(cache::lookup(set(1), bound).has_value());
  grow_set_4_until(1);
  EXPECT_EQ(obs::counter_value("cache.multiplicity.evictions"), 3u);
  EXPECT_FALSE(cache::lookup(set(1), bound).has_value());
  EXPECT_TRUE(cache::lookup(set(4), bound).has_value());
  for (const std::vector<int>& g : grown) EXPECT_TRUE(cache::lookup(set(4), g).has_value());
  EXPECT_LE(store_bytes(), 3 * set_bytes);

  // A candidate that does not fit the budget even in a set of its own is
  // never stored, and nothing is evicted for it.
  const Fns wide(64, {m.var(3).id(), bdd::kTrue});
  cache::insert(cache::function_set(sig, wide, 1), bound, scores_of(wide.size()));
  EXPECT_FALSE(cache::lookup(cache::function_set(sig, wide, 1), bound).has_value());
  EXPECT_EQ(obs::counter_value("cache.multiplicity.evictions"), 3u);
}

TEST_F(CacheTest, EachThreadHasItsOwnStoreUnderOneConfiguration) {
  // The configuration is process-wide and the store is per thread: a second
  // thread sees this thread's budget, starts with an empty store, and what
  // each stores stays out of the other's.
  Manager m(4);
  cache::SignatureComputer sig(m);
  const Fns fns = {{m.var(0).id(), bdd::kTrue}, {(m.var(1) ^ m.var(2)).id(), bdd::kTrue}};
  const cache::FunctionSet mine = cache::function_set(sig, fns, 0);
  const cache::FunctionSet theirs = cache::function_set(sig, fns, 1);
  const std::vector<int> bound = {0, 1};
  const cache::CandidateScores scores{5, 1, 4, {2, 2}};
  cache::CacheConfig config;
  config.max_bytes = std::size_t{1} << 20;
  cache::configure(config);
  cache::insert(mine, bound, scores);
  const double bytes = store_bytes();

  std::size_t seen_budget = 0;
  bool found_mine = true, found_theirs = false;
  std::thread([&] {
    seen_budget = cache::config().max_bytes;
    found_mine = cache::lookup(mine, bound).has_value();
    cache::insert(theirs, bound, scores);
    found_theirs = cache::lookup(theirs, bound).has_value();
  }).join();
  EXPECT_EQ(seen_budget, config.max_bytes);
  EXPECT_FALSE(found_mine);
  EXPECT_TRUE(found_theirs);
  EXPECT_TRUE(cache::lookup(mine, bound).has_value());
  EXPECT_FALSE(cache::lookup(theirs, bound).has_value());
  EXPECT_EQ(store_bytes(), bytes);
}

TEST_F(CacheTest, StoreOfFewEntriesEvictsTheLeastRecentlyUsed) {
  // Only the flow's own surface: configure, evaluate_bound_set and the obs
  // counters. Each seed makes its own set over rd53's outputs; a set of at
  // most four candidates of one bound size has one size, and one of them
  // measures it.
  Manager m(6);
  const circuits::Benchmark bench = circuits::build("rd53", m);
  std::vector<Isf> fns;
  for (const Bdd& f : bench.outputs) fns.push_back(Isf::completely_specified(f));
  cache::SignatureComputer sig(m);
  auto score = [&](const std::vector<std::uint64_t>& seeds, const std::vector<int>& bound) {
    for (std::uint64_t seed : seeds)
      (void)evaluate_bound_set(fns, bound, seed, &sig);
  };
  const std::vector<int> a = {0, 1, 2}, b = {0, 1, 3};
  score({1}, a);
  const double set_bytes = store_bytes();
  ASSERT_GT(set_bytes, 0.0);

  // The whole budget bounds one store: a budget of four sets holds four.
  cache::configure(budget_of(4, set_bytes));
  obs::reset();
  score({1}, a);
  score({1}, b);
  score({2, 3, 4}, a);
  EXPECT_EQ(obs::counter_value("cache.multiplicity.misses"), 5u);
  EXPECT_EQ(store_bytes(), 4 * set_bytes);
  score({2, 3, 4}, a);  // set 1 is now the least recently used
  EXPECT_EQ(obs::counter_value("cache.multiplicity.hits"), 3u);
  EXPECT_EQ(obs::counter_value("cache.multiplicity.evictions"), 0u);

  // One more set evicts set 1 whole: both of its records.
  score({5}, a);
  EXPECT_EQ(obs::counter_value("cache.multiplicity.misses"), 6u);
  EXPECT_EQ(obs::counter_value("cache.multiplicity.evictions"), 2u);
  score({2, 3, 4, 5}, a);
  EXPECT_EQ(obs::counter_value("cache.multiplicity.hits"), 7u);
  score({1}, b);  // stored again, in place of set 2
  EXPECT_EQ(obs::counter_value("cache.multiplicity.misses"), 7u);
  EXPECT_EQ(obs::counter_value("cache.multiplicity.evictions"), 3u);
}

TEST_F(CacheTest, StoreNeverExceedsItsBudget) {
  // Random sets of 1-8 outputs and random candidates of 2-6 bound
  // variables, streamed through a budget of a few sets. The last set keeps
  // growing until it alone outgrows the budget: it is dropped, not kept.
  Manager m(8);
  Rng rng(41);
  cache::SignatureComputer sig(m);
  std::vector<Edge> pool;
  std::vector<Bdd> keep;
  for (int i = 0; i < 16; ++i) {
    keep.push_back(test::bdd_from_table(m, test::random_table(rng, 8), 8));
    pool.push_back(keep.back().id());
  }
  auto random_bound = [&] {
    std::vector<int> vars = {0, 1, 2, 3, 4, 5, 6, 7};
    rng.shuffle(vars);
    vars.resize(static_cast<std::size_t>(rng.range(2, 6)));
    return vars;
  };
  cache::CacheConfig config;
  config.max_bytes = 4096;
  cache::configure(config);
  obs::reset();
  std::vector<cache::FunctionSet> sets;
  for (int i = 0; i < 200; ++i) {
    Fns fns;
    for (int k = rng.range(1, 8); k > 0; --k)
      fns.emplace_back(pool[rng.below(pool.size())], bdd::kTrue);
    sets.push_back(cache::function_set(sig, fns, rng.below(4)));
  }
  for (int i = 0; i < 2000; ++i) {
    const cache::FunctionSet& set = sets[rng.below(sets.size())];
    cache::insert(set, random_bound(), scores_of(set.words[1], rng.range(0, 3)));
    ASSERT_LE(store_bytes(), config.max_bytes) << "insert " << i;
  }
  EXPECT_GT(obs::counter_value("cache.multiplicity.evictions"), 0u);

  const cache::FunctionSet& big = sets.front();
  std::vector<std::vector<int>> stored;
  bool dropped = false;
  for (int i = 0; i < 2000 && !dropped; ++i) {
    stored.push_back(random_bound());
    cache::insert(big, stored.back(), scores_of(big.words[1]));
    ASSERT_LE(store_bytes(), config.max_bytes) << "growing insert " << i;
    dropped = obs::gauge_value("cache.sets") == 0.0;  // published by store_bytes()
  }
  EXPECT_TRUE(dropped);
  EXPECT_EQ(store_bytes(), 0.0);
  EXPECT_FALSE(cache::lookup(big, stored.front()).has_value());
}

TEST_F(CacheTest, RecordsCostAtMost128BytesBeyondTheirSet) {
  // 64 candidates of one search over 8 outputs: the set's signatures are
  // stored once, so each candidate adds only its record and index slot.
  Manager m(10);
  Rng rng(47);
  std::vector<Isf> fns;
  for (int i = 0; i < 8; ++i)
    fns.push_back(Isf::completely_specified(
        test::bdd_from_table(m, test::random_table(rng, 10), 10)));
  std::vector<std::vector<int>> bounds;
  for (int a = 0; a < 10 && bounds.size() < 64; ++a)
    for (int b = a + 1; b < 10 && bounds.size() < 64; ++b)
      for (int c = b + 1; c < 10 && bounds.size() < 64; ++c) bounds.push_back({a, b, c});
  ASSERT_EQ(bounds.size(), 64u);

  cache::SignatureComputer sig(m);
  obs::reset();
  (void)evaluate_bound_set(fns, bounds.front(), 1, &sig);
  const double first = store_bytes();
  for (std::size_t i = 1; i < bounds.size(); ++i)
    (void)evaluate_bound_set(fns, bounds[i], 1, &sig);
  EXPECT_EQ(obs::counter_value("cache.multiplicity.misses"), 64u);
  EXPECT_LE((store_bytes() - first) / 63, 128.0);
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
  EXPECT_TRUE(a.network == b.network);
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
  const std::vector<int> bound = {0, 1, 2};

  const BoundSetChoice plain = evaluate_bound_set(fns, bound, 1, nullptr);

  obs::reset();
  cache::SignatureComputer sig(m);
  const BoundSetChoice first = evaluate_bound_set(fns, bound, 1, &sig);
  const BoundSetChoice again = evaluate_bound_set(fns, bound, 1, &sig);
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
    gov.degrade("test", "test");
    EXPECT_FALSE(cache::memo_safe(&gov));
  }
}

// ---------------------------------------------------------------------------
// Differential: cache on vs off bit-identity
// ---------------------------------------------------------------------------

struct FlowOutcome {
  net::LutNetwork network;
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
  out.network = r.network;
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

    EXPECT_TRUE(baseline.network == cold.network) << circuit;
    EXPECT_TRUE(baseline.network == warm.network) << circuit;
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

  // Complete constants are complement-normalized by design — const-0 and
  // const-1 *share* a set (class counts are complement-invariant) — but
  // the all-DC ISF (care == 0) is a different problem and must key apart
  // from both even though every plane involved is a constant.
  const auto k_one = set_words(sig, {{t, t}}, 5);
  const auto k_zero = set_words(sig, {{f, t}}, 5);
  const auto k_alldc = set_words(sig, {{f, f}}, 5);
  EXPECT_EQ(k_one, k_zero);  // intentional complement sharing
  EXPECT_NE(k_one, k_alldc);
  EXPECT_NE(k_zero, k_alldc);

  // A completely specified x0 and the ISF whose care set happens to be x0
  // describe different problems; the complete/ISF marker must separate them
  // even when the raw edges involved coincide.
  const auto k_complete = set_words(sig, {{x0, t}}, 5);
  const auto k_isf = set_words(sig, {{x0, x0}}, 5);
  EXPECT_NE(k_complete, k_isf);

  // The store keeps the separation: a record of the constant is not the
  // all-DC ISF's.
  cache::insert(cache::function_set(sig, {{t, t}}, 5), {0, 1}, scores_of(1));
  EXPECT_TRUE(cache::lookup(cache::function_set(sig, {{f, t}}, 5), {0, 1}).has_value());
  EXPECT_FALSE(cache::lookup(cache::function_set(sig, {{f, f}}, 5), {0, 1}).has_value());
}

TEST_F(CacheTest, MultiplicityKeyDuplicateOutputsAndArityAreDistinct) {
  Manager m(3);
  cache::SignatureComputer sig(m);
  const Edge t = m.constant(true).id();
  const Edge x0 = m.var(0).id();
  const std::vector<int> bound = {0, 1};

  // One output vs the same output listed twice (duplicate-output specs are a
  // generator staple): the set must encode the multiplicity, not a set.
  const auto k_single = cache::function_set(sig, {{x0, t}}, 5);
  const auto k_double = cache::function_set(sig, {{x0, t}, {x0, t}}, 5);
  EXPECT_NE(k_single.words, k_double.words);
  EXPECT_EQ(k_single.words[1], 1u);
  EXPECT_EQ(k_double.words[1], 2u);
  cache::insert(k_single, bound, scores_of(1));
  EXPECT_FALSE(cache::lookup(k_double, bound).has_value());

  // Same functions, different bound set or seed -> different entries.
  EXPECT_FALSE(cache::lookup(k_single, {0, 2}).has_value());
  EXPECT_TRUE(cache::lookup(k_single, bound).has_value());
  EXPECT_NE(set_words(sig, {{t, t}}, 6), set_words(sig, {{t, t}}, 5));

  // Scores whose code lengths do not match the set's arity are not stored.
  cache::insert(k_double, bound, scores_of(1));
  EXPECT_FALSE(cache::lookup(k_double, bound).has_value());
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
