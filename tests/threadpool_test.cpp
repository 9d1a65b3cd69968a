// Unit tests of the worker pool: index coverage, slot discipline, inline
// fallbacks, exception semantics (lowest-index rethrow, cooperative
// cancellation), and the governor integration the bound-set evaluator relies
// on — a BudgetExceeded tripped mid-evaluation by one worker must drain the
// pool and resurface on the caller, leaving the pool reusable.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.h"
#include "circuits/circuits.h"
#include "core/budget.h"
#include "core/errors.h"
#include "decomp/boundset.h"
#include "isf/isf.h"
#include "tt/tt.h"
#include "util/threadpool.h"

namespace mfd {
namespace {

using util::ThreadPool;

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool;
  constexpr std::size_t kN = 500;
  std::vector<std::atomic<int>> hits(kN);
  pool.for_each(kN, 8, [&](std::size_t i, int) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SlotsAreWithinBoundsAndStable) {
  ThreadPool pool;
  constexpr int kPar = 4;
  std::vector<std::atomic<int>> slot_hits(kPar);
  pool.for_each(200, kPar, [&](std::size_t, int slot) {
    ASSERT_GE(slot, 0);
    ASSERT_LT(slot, kPar);
    slot_hits[static_cast<std::size_t>(slot)].fetch_add(1, std::memory_order_relaxed);
  });
  int total = 0;
  for (const auto& s : slot_hits) total += s.load();
  EXPECT_EQ(total, 200);
}

TEST(ThreadPool, SerialParallelismRunsInlineInOrder) {
  ThreadPool pool;
  const std::thread::id me = std::this_thread::get_id();
  std::vector<std::size_t> seen;
  pool.for_each(10, 1, [&](std::size_t i, int slot) {
    EXPECT_EQ(std::this_thread::get_id(), me);
    EXPECT_EQ(slot, 0);
    seen.push_back(i);
  });
  ASSERT_EQ(seen.size(), 10u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(ThreadPool, NestedForEachRunsInlineOnTheTaskThread) {
  ThreadPool pool;
  std::atomic<int> inner_total{0};
  pool.for_each(4, 4, [&](std::size_t, int) {
    const std::thread::id outer = std::this_thread::get_id();
    // A nested call must not wait on workers that may all be busy in the
    // enclosing call — it runs inline on this task's thread.
    pool.for_each(8, 4, [&](std::size_t, int slot) {
      EXPECT_EQ(std::this_thread::get_id(), outer);
      EXPECT_EQ(slot, 0);
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(ThreadPool, ZeroTasksIsANoOp) {
  ThreadPool pool;
  bool ran = false;
  pool.for_each(0, 8, [&](std::size_t, int) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, LowestIndexExceptionIsRethrown) {
  ThreadPool pool;
  // Every task throws its own index; index 0 is always claimed first, so the
  // lowest-index rule makes the surviving exception deterministic.
  try {
    pool.for_each(64, 4, [](std::size_t i, int) {
      throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "no exception propagated";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
}

TEST(ThreadPool, UsableAfterAnException) {
  ThreadPool pool;
  EXPECT_THROW(pool.for_each(16, 4,
                             [](std::size_t i, int) {
                               if (i == 0) throw std::runtime_error("boom");
                             }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.for_each(32, 4, [&](std::size_t, int) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, CancellationSkipsTasksAfterAnEarlyThrow) {
  ThreadPool pool;
  // Serial inline path gives exact semantics: the throw at index 3 must
  // prevent indices 4.. from ever running.
  std::vector<std::size_t> seen;
  EXPECT_THROW(pool.for_each(100, 1,
                             [&](std::size_t i, int) {
                               if (i == 3) throw std::runtime_error("stop");
                               seen.push_back(i);
                             }),
               std::runtime_error);
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ThreadPool, SharedGovernorTripsOnceAndCancelsThePool) {
  ThreadPool pool;
  ResourceBudget b;
  b.op_ceiling = 1000;
  ResourceGovernor gov(b);
  // All workers draw from the one atomic op budget; whichever crosses the
  // ceiling throws, the pool drains cooperatively, and exactly one
  // BudgetExceeded reaches the caller.
  std::atomic<int> trips{0};
  try {
    pool.for_each(64, 4, [&](std::size_t, int) {
      try {
        for (int k = 0; k < 100; ++k) gov.charge_mk(1);
      } catch (const BudgetExceeded&) {
        trips.fetch_add(1, std::memory_order_relaxed);
        throw;
      }
    });
    FAIL() << "op budget never tripped";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.resource(), BudgetExceeded::Resource::kOps);
  }
  EXPECT_GE(trips.load(), 1);
  EXPECT_GT(gov.ops_used(), 1000u);
}

// Cancellation mid-evaluation: a parallel bound-set search under a node
// budget that fits the spec but not the cofactors candidate evaluation
// builds. The 9-bit adder has 18 inputs, so its top sum bit and carry are
// too wide for the truth-table scorer and are scored on BDD cofactors. The
// BudgetExceeded raised inside a worker's private manager must surface from
// select_bound_set exactly like the serial trip, and both the pool and an
// unbudgeted search must work afterwards.
TEST(ThreadPool, BoundSetSearchCancelsMidEvaluationUnderTightNodeBudget) {
  bdd::Manager m(18);
  const circuits::Benchmark bench = circuits::adder(m, 9);
  std::vector<Isf> fns;
  for (const bdd::Bdd& f : bench.outputs) fns.push_back(Isf::completely_specified(f));
  std::vector<int> order(18);
  for (int v = 0; v < 18; ++v) order[static_cast<std::size_t>(v)] = v;
  ASSERT_GT(fns.back().support().size(), static_cast<std::size_t>(tt::kMaxVars));
  m.garbage_collect();

  BoundSetOptions opts;
  opts.jobs = 4;
  {
    ResourceBudget tight;
    // Room for the spec (in the caller's manager and in every worker's
    // copy), none for the cofactors of the wide outputs.
    tight.node_ceiling = m.live_node_count() + 8;
    ResourceGovernor gov(tight);
    ResourceGovernor::Scope scope(gov);
    bdd::Manager* mp = &m;
    ResourceGovernor* prev = mp->set_governor(&gov);
    EXPECT_THROW(select_bound_set(fns, order, 4, opts), BudgetExceeded);
    mp->set_governor(prev);
  }
  // No governor: the same parallel search completes and finds a bound set.
  const BoundSetChoice c = select_bound_set(fns, order, 4, opts);
  EXPECT_FALSE(c.vars.empty());
  // And the global pool is still healthy after the cancelled run.
  std::atomic<int> count{0};
  ThreadPool::global().for_each(16, 4, [&](std::size_t, int) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 16);
}

}  // namespace
}  // namespace mfd
