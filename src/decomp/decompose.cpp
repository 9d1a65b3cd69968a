// The recursive multi-output decomposition driver: the degradation-ladder
// wrapper (`synth`), the per-level orchestrator (`synth_attempt`), and the
// public `decompose()` entry. The emission units live in emit.cpp and the
// per-level decomposition step in step.cpp (see driver.h for the split).
#include "decomp/decompose.h"

#include <algorithm>
#include <new>
#include <optional>
#include <string>

#include "decomp/driver.h"
#include "obs/obs.h"

namespace mfd {
namespace decomp {
namespace {

/// Greedy clustering of outputs by support overlap: an output joins the
/// cluster it overlaps most, if the overlap covers at least half of its own
/// support; otherwise it seeds a new cluster. Returns index sets.
std::vector<std::vector<int>> cluster_by_support(
    const std::vector<std::vector<int>>& supports) {
  std::vector<int> order(supports.size());
  for (std::size_t i = 0; i < supports.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return supports[static_cast<std::size_t>(a)].size() >
           supports[static_cast<std::size_t>(b)].size();
  });

  std::vector<std::vector<int>> clusters;        // output indices
  std::vector<std::vector<int>> unions;          // sorted var unions
  for (int i : order) {
    const std::vector<int>& supp = supports[static_cast<std::size_t>(i)];
    int best = -1;
    std::size_t best_overlap = 0;
    for (std::size_t cl = 0; cl < clusters.size(); ++cl) {
      std::vector<int> inter;
      std::set_intersection(supp.begin(), supp.end(), unions[cl].begin(),
                            unions[cl].end(), std::back_inserter(inter));
      if (inter.size() > best_overlap) {
        best_overlap = inter.size();
        best = static_cast<int>(cl);
      }
    }
    if (best != -1 && best_overlap * 2 >= supp.size()) {
      clusters[static_cast<std::size_t>(best)].push_back(i);
      std::vector<int> merged;
      std::set_union(unions[static_cast<std::size_t>(best)].begin(),
                     unions[static_cast<std::size_t>(best)].end(), supp.begin(),
                     supp.end(), std::back_inserter(merged));
      unions[static_cast<std::size_t>(best)] = std::move(merged);
    } else {
      clusters.push_back({i});
      unions.push_back(supp);
    }
  }
  return clusters;
}

/// One recursion level: emit outputs whose extension fits a single LUT,
/// bottom out on the ladder floor, split mostly-disjoint output groups, and
/// hand each remaining cluster to the decomposition step.
std::vector<int> synth_attempt(Ctx& c, const std::vector<Isf>& input,
                               const std::vector<int>& ids, int depth) {
  c.stats.max_depth = std::max(c.stats.max_depth, depth);
  obs::add("decomp.levels");
  obs::gauge_max("decomp.max_depth", depth);
  bdd::Manager& m = c.m;
  const int k = c.opts.lut_inputs;
  c.gov->check_deadline("decomp.synth");

  // The ladder driver reruns the same input on its floor, so leave it intact.
  std::vector<Isf> fns = input;

  // mulopII baseline: every don't care becomes 0 before anything else.
  if (!c.opts.exploit_dc)
    for (Isf& f : fns) f = Isf::completely_specified(f.extension_zero());

  std::vector<int> result(fns.size(), net::kConst0);
  std::vector<int> big;
  for (std::size_t i = 0; i < fns.size(); ++i) {
    // Don't cares may admit an extension that fits a single LUT even when
    // the raw on-set does not (Coudert-Madre restrict).
    const bdd::Bdd ext = fns[i].extension_small();
    if (static_cast<int>(m.support(ext.id()).size()) <= k) {
      result[i] = emit_small(c, ext);
      c.record_level(ids[i]);
    } else {
      big.push_back(static_cast<int>(i));
    }
  }
  if (big.empty()) return result;

  std::vector<Isf> work;
  std::vector<int> work_ids;
  work.reserve(big.size());
  work_ids.reserve(big.size());
  for (int i : big) {
    work.push_back(fns[i]);
    work_ids.push_back(ids[static_cast<std::size_t>(i)]);
  }

  // ---- ladder floor: structural emission only --------------------------
  // At the bottom rung the bound-set machinery is bypassed entirely; Shannon
  // splits and direct BDD mux mapping are linear in the BDD sizes, so this
  // path terminates wherever the full flow would diverge.
  if (c.gov->degrade_level() >= kDegradeStructural) {
    const std::vector<int> sigs = fallback_emit(c, work, work_ids, depth);
    for (std::size_t i = 0; i < big.size(); ++i) result[big[i]] = sigs[i];
    return result;
  }

  // ---- cluster outputs by support overlap ------------------------------
  // One bound set serves one cluster; outputs with mostly disjoint supports
  // gain nothing from a common bound set and would only pay the cost of the
  // joint analysis. Decompose such groups independently.
  if (work.size() > 1) {
    std::vector<std::vector<int>> supports;
    supports.reserve(work.size());
    for (const Isf& f : work) supports.push_back(f.support());
    std::vector<std::vector<int>> clusters = cluster_by_support(supports);
    if (clusters.size() > 1) {
      for (const std::vector<int>& cluster : clusters) {
        std::vector<Isf> group;
        std::vector<int> group_ids;
        group.reserve(cluster.size());
        group_ids.reserve(cluster.size());
        for (int i : cluster) {
          group.push_back(work[static_cast<std::size_t>(i)]);
          group_ids.push_back(work_ids[static_cast<std::size_t>(i)]);
        }
        const std::vector<int> sigs = synth(c, std::move(group), group_ids, depth);
        for (std::size_t i = 0; i < cluster.size(); ++i)
          result[big[static_cast<std::size_t>(cluster[i])]] = sigs[i];
      }
      return result;
    }
  }

  const std::vector<int> sigs =
      decomposition_step(c, std::move(work), work_ids, depth);
  for (std::size_t i = 0; i < big.size(); ++i) result[big[i]] = sigs[i];
  return result;
}

}  // namespace

std::vector<int> synth(Ctx& c, std::vector<Isf> fns, const std::vector<int>& ids,
                       int depth) {
  ResourceGovernor& gov = *c.gov;
  if (gov.degrade_level() == kDegradeFull) {
    const DecomposeStats before = c.stats;
    std::string reason;
    try {
      return synth_attempt(c, fns, ids, depth);
    } catch (const BudgetExceeded& e) {
      reason = e.what();
    } catch (const std::bad_alloc&) {
      reason = "allocation failure (bad_alloc)";
    }
    // The stats describe emitted LUTs only, so the aborted attempt's steps
    // go (the decomp.* counters keep them). Its LUTs are unreferenced
    // (outputs attach only at the end of decompose) and swept by
    // net.simplify(); BDD intermediates are dead roots reclaimed by the next
    // garbage collection.
    c.stats = before;
    gov.degrade("decomp.synth@d=" + std::to_string(depth), reason);
    obs::add("decomp.ladder_retries");
  }
  // The floor runs with enforcement suspended; only a fault injected into it
  // escapes to the caller.
  ResourceGovernor::SuspendScope suspend(gov);
  return synth_attempt(c, fns, ids, depth);
}

}  // namespace decomp

net::LutNetwork decompose(std::vector<Isf> fns, const std::vector<int>& pi_vars,
                          const DecomposeOptions& opts, DecomposeStats* stats) {
  if (fns.empty()) throw Error("decompose: no functions to decompose");
  obs::ScopedPhase phase("decompose");
  obs::add("decomp.runs");
  bdd::Manager& m = *fns.front().manager();

  // The ladder driver needs a governor even when the caller did not install
  // one (standalone decompose in tests/benches): an unlimited local governor
  // never trips a budget but still carries the degradation state, so
  // injected faults recover through the same path.
  ResourceGovernor* gov = ResourceGovernor::current();
  std::optional<ResourceGovernor> local_gov;
  std::optional<ResourceGovernor::Scope> local_scope;
  if (gov == nullptr) {
    local_gov.emplace();
    local_scope.emplace(*local_gov);
    gov = &*local_gov;
  }

  const std::size_t num_outputs = fns.size();
  decomp::Ctx c{m,  opts, gov, net::LutNetwork(static_cast<int>(pi_vars.size())),
                {}, {},   {}};
  c.var_signal.assign(static_cast<std::size_t>(m.num_vars()), decomp::kNoSignal);
  c.out_level.assign(num_outputs, kDegradeFull);
  for (std::size_t i = 0; i < pi_vars.size(); ++i)
    c.bind(pi_vars[i], static_cast<int>(i));

  std::vector<int> ids(num_outputs);
  for (std::size_t i = 0; i < num_outputs; ++i) ids[i] = static_cast<int>(i);

  const std::vector<int> sigs = decomp::synth(c, std::move(fns), ids, 0);
  for (int s : sigs) c.net.add_output(s);
  // simplify() also sweeps any LUTs stranded by ladder-aborted attempts
  // (outputs only attach here, so such LUTs are dead by construction).
  c.net.simplify();
  c.net.collapse(opts.lut_inputs);
  c.stats.output_degrade_level = c.out_level;
  gov->set_per_output_levels(c.out_level);
  if (stats) *stats = c.stats;
  return std::move(c.net);
}

}  // namespace mfd
