#include "decomp/boundset.h"

#include <algorithm>
#include <bit>
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

/// For each vertex v of a bound set (bit k of v = value of bound[k]), the
/// vertex of the cut at `positions` (a bit per bound position), built one
/// set bit at a time: v's cut vertex is that of v without its lowest bit,
/// plus the cut bit of that position.
void cut_vertices(std::size_t p, std::uint32_t positions, std::vector<std::uint32_t>& out) {
  std::uint32_t bit_of[32] = {};
  std::uint32_t next = 1;
  for (std::size_t k = 0; k < p; ++k)
    if ((positions >> k) & 1) {
      bit_of[k] = next;
      next <<= 1;
    }
  out.resize(std::size_t{1} << p);
  out[0] = 0;
  for (std::size_t v = 1; v < out.size(); ++v)
    out[v] = out[v & (v - 1)] | bit_of[std::countr_zero(v)];
}

/// The joint classes of the outputs' cofactors: distinct tuples of
/// per-output ids over the bound vertices (no coloring). Each output adds
/// its ids per cut vertex, expanded here to the bound's vertices.
class JointClasses {
 public:
  void clear(std::size_t p) {
    p_ = p;
    count_ = 0;
  }
  int count() const { return count_; }

  template <class Id>
  void add(std::uint32_t positions, const Id* of_cut_vertex, int ids) {
    cut_vertices(p_, positions, cut_vertex_);
    const std::size_t n = cut_vertex_.size();
    if (count_ == 0) {  // the first output's ids are dense in first-seen order
      joint_.resize(n);
      for (std::size_t v = 0; v < n; ++v) joint_[v] = of_cut_vertex[cut_vertex_[v]];
      count_ = ids;
      return;
    }
    // Pair (joint, id) is slot joint * ids + id, live where its stamp is
    // this call's.
    const std::size_t slots = static_cast<std::size_t>(count_) * static_cast<std::size_t>(ids);
    if (stamp_.size() < slots) {
      stamp_.resize(slots, 0);
      pair_id_.resize(slots);
    }
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    int next = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const std::size_t slot = static_cast<std::size_t>(joint_[v]) * static_cast<std::size_t>(ids) +
                               of_cut_vertex[cut_vertex_[v]];
      if (stamp_[slot] != epoch_) {
        stamp_[slot] = epoch_;
        pair_id_[slot] = next++;
      }
      joint_[v] = pair_id_[slot];
    }
    count_ = next;
  }

 private:
  std::size_t p_ = 0;
  int count_ = 0;
  std::vector<std::uint32_t> cut_vertex_;
  std::vector<int> joint_;
  std::vector<std::uint32_t> stamp_;
  std::vector<int> pair_id_;
  std::uint32_t epoch_ = 0;
};

/// The cross-check of a reused answer: aborts unless the shared manager's
/// classes under the whole bound set, and their coloring, give the stored
/// code length and the stored ids expanded to the bound's vertices.
void check_reused(const OutputView& view, const std::vector<int>& bound,
                  std::uint32_t positions, std::uint64_t seed,
                  const OutputView::CutAnswer& answer) {
  BoundClasses reference;
  bound_classes(view.isf(), bound, reference);
  const int r =
      code_length(class_count(reference, view.isf().is_completely_specified(), seed));
  std::vector<std::uint32_t> cut_vertex;
  cut_vertices(bound.size(), positions, cut_vertex);
  bool same = r == answer.r && reference.ids == answer.ids;
  for (std::size_t v = 0; v < cut_vertex.size() && same; ++v)
    same = reference.of_vertex[v] == answer.of_vertex[cut_vertex[v]];
  if (same) return;
  std::fprintf(stderr,
               "reuse cross-check failed: stored r %d over %d classes; the BDDs say %d over %d\n",
               answer.r, answer.ids, r, reference.ids);
  std::abort();
}

/// Strict order on choices; `false` on a full score tie, so the
/// earliest-generated candidate wins ties. Generation position is the
/// canonical tie key: it is a structural property of the candidate sequence
/// (window start, then move index), independent of managers and allocation
/// order — and unlike a lexicographic variable-set key it preserves the
/// window-seed order's locality prior among equals (a sorted-vars tie key
/// was measured ~15% worse on the table1 CLB totals).
bool better(const BoundSetChoice& a, const BoundSetChoice& b) {
  if (a.benefit != b.benefit) return a.benefit > b.benefit;
  if (a.sharing_gap != b.sharing_gap) return a.sharing_gap > b.sharing_gap;
  return a.sum_r < b.sum_r;
}

BoundSetChoice evaluate(std::vector<OutputView>& views, const std::vector<int>& bound,
                        std::uint64_t seed) {
  BoundSetChoice choice;
  choice.vars = bound;
  choice.benefit = 0;
  choice.r_per_output.reserve(views.size());

  // Each output answers from its cut: the bound positions in its support.
  thread_local std::vector<std::uint32_t> positions;
  positions.clear();
  int cut_outputs = 0;
  for (const OutputView& view : views) {
    std::uint32_t at = 0;
    for (std::size_t k = 0; k < bound.size(); ++k)
      if (view.in_support(bound[k])) at |= std::uint32_t{1} << k;
    positions.push_back(at);
    if (at != 0) ++cut_outputs;
  }

  // A view's stored answers are served and stored only while memoization
  // cannot observe timing (rule 2 of docs/CACHING.md): a coloring cut short
  // by a deadline must not outlive its candidate.
  const bool reuse = cache::memo_safe(ResourceGovernor::current());
  const bool check = cache::config().cross_check;
  thread_local std::vector<int> cut;
  thread_local BoundClasses classes;
  thread_local JointClasses joint;
  joint.clear(bound.size());
  for (std::size_t o = 0; o < views.size(); ++o) {
    OutputView& view = views[o];
    if (positions[o] == 0) {
      choice.r_per_output.push_back(0);
      continue;
    }
    cut.clear();
    for (std::size_t k = 0; k < bound.size(); ++k)
      if ((positions[o] >> k) & 1) cut.push_back(bound[k]);
    int r;
    if (const std::optional<OutputView::CutAnswer> stored =
            reuse ? view.answer(cut, seed) : std::nullopt) {
      if (check) check_reused(view, bound, positions[o], seed, *stored);
      r = stored->r;
      if (cut_outputs > 1) joint.add(positions[o], stored->of_vertex, stored->ids);
    } else {
      view.classes(cut, classes);
      r = code_length(class_count(classes, view.isf().is_completely_specified(), seed));
      if (reuse) view.remember(cut, seed, r, classes);
      if (cut_outputs > 1) joint.add(positions[o], classes.of_vertex.data(), classes.ids);
    }
    choice.r_per_output.push_back(r);
    choice.benefit += static_cast<long>(cut.size()) - r;
    choice.sum_r += r;
  }

  // Sharing potential: joint class count vs sum of individual code lengths.
  // A cheap equality-based joint count (no coloring) suffices to rank
  // candidates.
  if (cut_outputs > 1)
    choice.sharing_gap = static_cast<int>(choice.sum_r) - code_length(joint.count());
  return choice;
}

}  // namespace

BoundSetChoice evaluate_bound_set(std::vector<OutputView>& views,
                                  const std::vector<int>& bound, std::uint64_t seed) {
  BoundSetChoice choice = evaluate(views, bound, seed);
  publish_class_queries(views);
  return choice;
}

BoundSetChoice evaluate_bound_set(const std::vector<Isf>& fns,
                                  const std::vector<int>& bound, std::uint64_t seed) {
  std::vector<OutputView> views;
  views.reserve(fns.size());
  for (const Isf& f : fns) views.push_back(OutputView::reference(f));
  return evaluate_bound_set(views, bound, seed);
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
      BoundSetChoice r = evaluate(views, bound, seed);
      ++evaluations;
      if (best.vars.empty() || better(r, best)) {
        best = std::move(r);
        improved = true;
      }
    }
    return improved;
  };

  // Sliding windows over the window-seed order.
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
      // Every move keeps the batch's base, best.vars without position bi: a
      // DAG view answers each move with one split pass from its cofactors.
      std::vector<int> base = best.vars;
      base.erase(base.begin() + static_cast<std::ptrdiff_t>(bi));
      for (OutputView& view : views) view.set_base(base);
      if (run_batch(std::move(moves))) improved = true;
      for (OutputView& view : views) view.set_base({});
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
