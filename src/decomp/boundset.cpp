#include "decomp/boundset.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "cache/cache.h"
#include "core/budget.h"
#include "core/faultinject.h"
#include "decomp/compat.h"
#include "obs/obs.h"
#include "util/coloring.h"

namespace mfd {
namespace {

/// The one coloring site: an output's class count under a candidate. A
/// completely specified output's classes are its distinct cofactors
/// (compatibility is equality); otherwise the quick ISF coloring of its
/// incompatibility graph over the class ids: DSATUR with one restart.
int class_count(const BoundClasses& classes, bool complete, std::uint64_t seed) {
  if (complete) return classes.ids;
  Graph g(classes.ids);
  for (const auto& [a, b] : classes.conflicts) g.add_edge(a, b);
  ColoringOptions copts;
  copts.seed = seed;
  copts.restarts = 2;
  return color_graph(g, copts).num_colors;
}

/// Distinct tuples of per-output ids over the bound vertices: the joint
/// class count of the outputs' cofactors (no coloring).
int joint_class_count(const std::vector<BoundClasses>& outputs) {
  std::vector<int> joint(outputs.front().of_vertex.size(), 0);
  int count = 1;
  for (const BoundClasses& o : outputs) {
    std::vector<int> id_of_pair(static_cast<std::size_t>(count * o.ids), -1);
    int next = 0;
    for (std::size_t v = 0; v < joint.size(); ++v) {
      int& id = id_of_pair[static_cast<std::size_t>(joint[v] * o.ids + o.of_vertex[v])];
      if (id < 0) id = next++;
      joint[v] = id;
    }
    count = next;
  }
  return count;
}

/// Strict order on choices; `false` on a full score tie, so the
/// earliest-generated candidate wins ties. Generation position is the
/// canonical tie key: it is a structural property of the candidate sequence
/// (window start, then move index), independent of managers and allocation
/// order — and unlike a lexicographic variable-set key it preserves the
/// sifted order's locality prior among equals (a sorted-vars tie key was
/// measured ~15% worse on the table1 CLB totals).
bool better(const BoundSetChoice& a, const BoundSetChoice& b) {
  if (a.benefit != b.benefit) return a.benefit > b.benefit;
  if (a.sharing_gap != b.sharing_gap) return a.sharing_gap > b.sharing_gap;
  return a.sum_r < b.sum_r;
}

BoundSetChoice evaluate_fresh(std::vector<OutputView>& views, const std::vector<int>& bound,
                              std::uint64_t seed) {
  BoundSetChoice choice;
  choice.vars = bound;
  choice.benefit = 0;

  std::vector<BoundClasses> cut_outputs;  // outputs whose support meets the bound set
  for (OutputView& view : views) {
    int cut = 0;
    for (int v : view.support())
      if (std::find(bound.begin(), bound.end(), v) != bound.end()) ++cut;
    if (cut == 0) {
      choice.r_per_output.push_back(0);
      continue;
    }
    BoundClasses& classes = cut_outputs.emplace_back();
    view.classes(bound, classes);
    const int r =
        code_length(class_count(classes, view.isf().is_completely_specified(), seed));
    choice.r_per_output.push_back(r);
    choice.benefit += cut - r;
    choice.sum_r += r;
  }

  // Sharing potential: joint class count vs sum of individual code lengths.
  // A cheap equality-based joint count (no coloring) suffices to rank
  // candidates.
  if (cut_outputs.size() > 1)
    choice.sharing_gap = static_cast<int>(choice.sum_r) -
                         code_length(joint_class_count(cut_outputs));
  return choice;
}

/// True when scores may come from and go to the multiplicity cache: it is
/// on (a nonzero byte budget), and memoization cannot observe timing (no
/// armed budget, degradation, expired deadline or injected fault). The
/// coloring's early-exits make the scores timing-dependent there, and
/// caching would leak one run's schedule into the next (rule 2 of the
/// determinism contract).
bool memo_allowed() {
  return cache::config().max_bytes != 0 && cache::memo_safe(ResourceGovernor::current());
}

/// The multiplicity-cache key that every candidate over the views shares.
cache::FunctionSet function_set_of(const std::vector<OutputView>& views,
                                   cache::SignatureComputer& sig, std::uint64_t seed) {
  std::vector<std::pair<bdd::Edge, bdd::Edge>> fn_edges;
  fn_edges.reserve(views.size());
  for (const OutputView& v : views) fn_edges.emplace_back(v.isf().on().id(), v.isf().care().id());
  return cache::function_set(sig, fn_edges, seed);
}

BoundSetChoice evaluate_counted(std::vector<OutputView>& views, const std::vector<int>& bound,
                                std::uint64_t seed, const cache::FunctionSet* set) {
  // Whole-evaluation memoization (docs/CACHING.md): the choice is a pure
  // function of the candidate's (function semantics, bound variables, seed),
  // so a hit skips the class queries and the ISF colorings outright.
  // Signatures are manager and order independent, so the entry is shared
  // across both portfolio runs. No set means no lookup (memo_allowed).
  if (set == nullptr) return evaluate_fresh(views, bound, seed);

  if (std::optional<cache::CandidateScores> hit = cache::lookup(*set, bound)) {
    BoundSetChoice choice{bound, hit->benefit, hit->sharing_gap, hit->sum_r,
                          std::move(hit->r_per_output)};
    if (cache::config().cross_check) {
      // The cross-check mode recomputes every hit on the shared manager.
      std::vector<OutputView> reference;
      reference.reserve(views.size());
      for (const OutputView& v : views) reference.push_back(OutputView::reference(v.isf()));
      const BoundSetChoice fresh = evaluate_fresh(reference, bound, seed);
      if (fresh != choice) {
        std::fprintf(stderr,
                     "cache cross-check failed: multiplicity hit (benefit %ld,"
                     " gap %d) != recomputed (benefit %ld, gap %d)\n",
                     choice.benefit, choice.sharing_gap, fresh.benefit,
                     fresh.sharing_gap);
        std::abort();
      }
    }
    return choice;
  }

  BoundSetChoice choice = evaluate_fresh(views, bound, seed);
  cache::insert(*set, bound,
                {choice.benefit, choice.sharing_gap, choice.sum_r, choice.r_per_output});
  return choice;
}

}  // namespace

BoundSetChoice evaluate_bound_set(std::vector<OutputView>& views,
                                  const std::vector<int>& bound, std::uint64_t seed,
                                  cache::SignatureComputer* sig) {
  std::optional<cache::FunctionSet> set;
  if (sig != nullptr && memo_allowed()) set = function_set_of(views, *sig, seed);
  BoundSetChoice choice = evaluate_counted(views, bound, seed, set ? &*set : nullptr);
  publish_class_queries(views);
  return choice;
}

BoundSetChoice evaluate_bound_set(const std::vector<Isf>& fns,
                                  const std::vector<int>& bound, std::uint64_t seed,
                                  cache::SignatureComputer* sig) {
  std::vector<OutputView> views;
  views.reserve(fns.size());
  for (const Isf& f : fns) views.push_back(OutputView::reference(f));
  return evaluate_bound_set(views, bound, seed, sig);
}

BoundSetChoice select_bound_set(std::vector<OutputView>& views,
                                const std::vector<int>& order, int p,
                                std::uint64_t seed, const BoundSetOptions& opts) {
  const int n = static_cast<int>(order.size());
  if (fault::armed()) fault::point("decomp.boundset");

  // Candidate evaluation is the search's unit of cost; under an installed
  // governor an expired deadline stops the search at the best bound set found
  // so far (possibly none, which sends the caller to the fallback path).
  ResourceGovernor* gov = ResourceGovernor::current();
  cache::SignatureComputer sig(*views.front().isf().manager());
  // Every candidate of the search shares one function set, built on the
  // first candidate that may use the cache.
  std::optional<cache::FunctionSet> set;

  BoundSetChoice best;
  int budget_left = std::max(0, opts.max_evaluations);
  int evaluations = 0;
  bool deadline_stop = false;

  // Scores one batch of candidates in generation order. The evaluation
  // budget truncates the batch before scoring, and the first candidate of a
  // full score tie keeps the lead.
  auto run_batch = [&](std::vector<std::vector<int>> batch) {
    if (budget_left <= 0 || deadline_stop) return false;
    if (static_cast<int>(batch.size()) > budget_left)
      batch.resize(static_cast<std::size_t>(budget_left));
    budget_left -= static_cast<int>(batch.size());
    bool improved = false;
    for (const std::vector<int>& bound : batch) {
      if (gov != nullptr && gov->deadline_expired()) {
        deadline_stop = true;
        break;
      }
      const cache::FunctionSet* memo = nullptr;
      if (memo_allowed()) {
        if (!set) set = function_set_of(views, sig, seed);
        memo = &*set;
      }
      BoundSetChoice r = evaluate_counted(views, bound, seed, memo);
      ++evaluations;
      if (best.vars.empty() || better(r, best)) {
        best = std::move(r);
        improved = true;
      }
    }
    return improved;
  };

  // Sliding windows over the sifted order.
  std::vector<std::vector<int>> windows;
  for (int start = 0; start + p <= n; ++start)
    windows.emplace_back(order.begin() + start, order.begin() + start + p);
  run_batch(std::move(windows));

  // Local exchange refinement: swap one bound variable against one outside
  // variable. One batch scores every swap of one bound *position* against
  // the best at the start of the batch; its best improving member (if any)
  // leads before the next position's batch is generated, so improvements
  // chain across positions within a pass.
  for (int pass = 0; pass < opts.improvement_passes; ++pass) {
    bool improved = false;
    for (std::size_t bi = 0;
         bi < best.vars.size() && budget_left > 0 && !deadline_stop; ++bi) {
      std::vector<std::vector<int>> moves;
      for (int v : order) {
        if (std::find(best.vars.begin(), best.vars.end(), v) != best.vars.end())
          continue;
        std::vector<int> bound = best.vars;
        bound[bi] = v;
        std::sort(bound.begin(), bound.end());
        moves.push_back(std::move(bound));
      }
      if (run_batch(std::move(moves))) improved = true;
    }
    if (!improved || best.vars.empty() || budget_left <= 0 || deadline_stop) break;
  }

  if (deadline_stop) obs::add("boundset.deadline_stops");
  publish_class_queries(views);
  obs::add("boundset.searches");
  obs::add("boundset.candidates_evaluated", static_cast<std::uint64_t>(evaluations));
  if (!best.vars.empty()) obs::add("boundset.found");
  return best;
}

}  // namespace mfd
