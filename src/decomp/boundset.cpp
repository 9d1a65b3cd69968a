#include "decomp/boundset.h"

#include <algorithm>
#include <array>
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

/// One output's classes under a candidate bound set. Bound vertex v (bit k of
/// v = value of bound[k]) gets the dense id of its (on, care) cofactor, ids
/// handed out in first-seen vertex order — a structural order fixed by the
/// bound set, so the incompatibility graph over the distinct cofactors and
/// hence the coloring are identical across managers, runs and scoring paths.
struct OutputClasses {
  int colors = 0;  // class count after the quick ISF coloring
  int ids = 0;     // distinct cofactors
  std::vector<int> of_vertex;
};

/// Quick ISF coloring: DSATUR with one restart, exact only for tiny graphs.
int color_count(const Graph& g, std::uint64_t seed) {
  ColoringOptions copts;
  copts.seed = seed;
  copts.restarts = 2;
  copts.exact_vertex_limit = 14;
  return color_graph(g, copts).num_colors;
}

/// The reference scorer: one cofactor_cube walk per bound vertex in the
/// shared manager.
OutputClasses classes_on_bdd(const Isf& f, const std::vector<int>& bound,
                             std::uint64_t seed) {
  const CofactorTable table = cofactor_table(f, bound);
  OutputClasses out;
  std::vector<int> rep;  // first vertex of each id
  out.of_vertex = partition_by_equality(table, &rep);
  out.ids = static_cast<int>(rep.size());
  // Completely specified: compatibility is equality, classes = distinct cofactors.
  if (f.is_completely_specified()) {
    out.colors = out.ids;
    return out;
  }
  Graph g(out.ids);
  for (int a = 0; a < out.ids; ++a)
    for (int b = a + 1; b < out.ids; ++b)
      if (!vertices_compatible(table.entries[rep[a]], table.entries[rep[b]])) g.add_edge(a, b);
  out.colors = color_count(g, seed);
  return out;
}

/// Scores an output on its truth tables: the cut variables (bound variables
/// in the support) move to the top of a copy of the tables, so the cofactors
/// are contiguous blocks, deduplicated by hash and compared word by word.
OutputClasses classes_on_tt(const tt::IsfTables& t, const std::vector<int>& bound,
                            std::uint64_t seed) {
  const int n = t.num_vars();
  std::vector<int> var_of(bound.size(), -1);  // table variable of bound[k]
  std::uint32_t cut_mask = 0;
  for (std::size_t k = 0; k < bound.size(); ++k) {
    const auto it = std::find(t.vars.begin(), t.vars.end(), bound[k]);
    if (it == t.vars.end()) continue;
    var_of[k] = static_cast<int>(it - t.vars.begin());
    cut_mask |= std::uint32_t{1} << var_of[k];
  }
  const int w = n - std::popcount(cut_mask);  // cofactor block width
  std::array<int, tt::kMaxVars> at{}, pos{};  // table variable at / position of
  for (int j = 0; j < n; ++j) at[j] = pos[j] = j;

  // A cut variable already in the top positions stays there, so windows at
  // the top of the level order need no swap (and no copy).
  tt::TruthTable on_moved, care_moved;
  bool moved = false;
  int top = w;
  for (const int j : var_of) {
    if (j < 0 || pos[j] >= w) continue;
    while ((cut_mask >> at[top]) & 1) ++top;
    if (!moved) {
      on_moved = t.on;
      if (!t.complete) care_moved = t.care;
      moved = true;
    }
    const int from = pos[j];
    on_moved.swap_vars(from, top);
    if (!t.complete) care_moved.swap_vars(from, top);
    pos[at[top]] = from;
    pos[j] = top;
    std::swap(at[from], at[top]);
  }

  // The care table of a complete output is all ones and is never read.
  const tt::Blocks on_blocks(moved ? on_moved : t.on, w);
  const tt::Blocks care_blocks(moved && !t.complete ? care_moved : t.care, w);
  std::vector<int> id_of_block(std::size_t{1} << (n - w), -1);
  std::vector<std::size_t> rep;  // block of each id
  std::vector<std::uint64_t> rep_hash;
  OutputClasses out;
  out.of_vertex.resize(std::size_t{1} << bound.size());
  for (std::size_t v = 0; v < out.of_vertex.size(); ++v) {
    std::size_t block = 0;
    for (std::size_t k = 0; k < bound.size(); ++k)
      if (var_of[k] >= 0) block |= ((v >> k) & 1) << (pos[var_of[k]] - w);
    int& id = id_of_block[block];
    if (id < 0) {
      const std::uint64_t h =
          t.complete ? on_blocks.hash(block)
                     : on_blocks.hash(block) * 0x100000001B3ull ^ care_blocks.hash(block);
      for (std::size_t r = 0; r < rep.size() && id < 0; ++r)
        if (rep_hash[r] == h && on_blocks.equal(block, rep[r]) &&
            (t.complete || care_blocks.equal(block, rep[r])))
          id = static_cast<int>(r);
      if (id < 0) {
        id = static_cast<int>(rep.size());
        rep.push_back(block);
        rep_hash.push_back(h);
      }
    }
    out.of_vertex[v] = id;
  }
  out.ids = static_cast<int>(rep.size());
  if (t.complete) {
    out.colors = out.ids;
    return out;
  }
  Graph g(out.ids);
  for (int a = 0; a < out.ids; ++a)
    for (int b = a + 1; b < out.ids; ++b)
      if (!tt::compatible(on_blocks, care_blocks, rep[a], rep[b])) g.add_edge(a, b);
  out.colors = color_count(g, seed);
  return out;
}

/// Scores a wide output on its cofactor DAG: the (on, care) id pairs of the
/// 2^p vertices, numbered in first-seen vertex order as classes_on_bdd
/// numbers its edges (equal ids are equal functions), and one
/// incompatibility edge per conflicting pair of classes. The candidate's
/// scratch nodes are dropped before the coloring.
OutputClasses classes_on_dag(bdd::CofactorDag& dag, const std::vector<int>& bound,
                             std::uint64_t seed) {
  using Id = bdd::CofactorDag::Id;
  static std::vector<std::pair<Id, Id>> vertex, rep;
  static std::vector<int> slot_id;
  dag.cofactors(bound, vertex);
  OutputClasses out;
  out.of_vertex.resize(vertex.size());
  rep.clear();
  const std::size_t mask = std::bit_ceil(2 * vertex.size()) - 1;
  slot_id.assign(mask + 1, -1);
  for (std::size_t v = 0; v < vertex.size(); ++v) {
    const auto [on, care] = vertex[v];
    const std::uint64_t h = ((std::uint64_t{on} << 32) | care) * 0x9e3779b97f4a7c15ULL;
    std::size_t s = static_cast<std::size_t>(h >> 32) & mask;
    while (slot_id[s] >= 0 && rep[static_cast<std::size_t>(slot_id[s])] != vertex[v])
      s = (s + 1) & mask;
    if (slot_id[s] < 0) {
      slot_id[s] = static_cast<int>(rep.size());
      rep.push_back(vertex[v]);
    }
    out.of_vertex[v] = slot_id[s];
  }
  out.ids = static_cast<int>(rep.size());
  if (dag.care() == bdd::CofactorDag::kOne) {
    dag.drop_scratch();
    out.colors = out.ids;
    return out;
  }
  Graph g(out.ids);
  for (int a = 0; a < out.ids; ++a)
    for (int b = a + 1; b < out.ids; ++b)
      if (dag.conflict(rep[a].first, rep[a].second, rep[b].first, rep[b].second))
        g.add_edge(a, b);
  dag.drop_scratch();
  out.colors = color_count(g, seed);
  return out;
}

/// Distinct tuples of per-output ids over the bound vertices: the joint
/// class count of the outputs' cofactors (no coloring).
int joint_class_count(const std::vector<OutputClasses>& outputs) {
  std::vector<int> joint(outputs.front().of_vertex.size(), 0);
  int count = 1;
  for (const OutputClasses& o : outputs) {
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

bool same_scores(const BoundSetChoice& a, const BoundSetChoice& b) {
  return a.benefit == b.benefit && a.sharing_gap == b.sharing_gap &&
         a.sum_r == b.sum_r && a.r_per_output == b.r_per_output;
}

/// Per-output scorings on truth tables and on BDDs ("boundset.tt_outputs" /
/// "bdd_outputs"); the BDD side is the cofactor DAG, or the shared manager
/// on the reference path.
struct PathCounts {
  std::uint64_t tt = 0;
  std::uint64_t bdd = 0;
};

void publish(const PathCounts& counts) {
  obs::add("boundset.tt_outputs", counts.tt);
  obs::add("boundset.bdd_outputs", counts.bdd);
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

BoundSetChoice evaluate_bound_set_fresh(
    const std::vector<Isf>& fns, const std::vector<std::vector<int>>& supports,
    const std::vector<int>& bound, std::uint64_t seed,
    OutputScorers* scorers, PathCounts& counts) {
  BoundSetChoice choice;
  choice.vars = bound;
  choice.benefit = 0;

  std::vector<OutputClasses> cut_outputs;  // outputs whose support meets the bound set
  PathCounts used;
  for (std::size_t i = 0; i < fns.size(); ++i) {
    int cut = 0;
    for (int v : supports[i])
      if (std::find(bound.begin(), bound.end(), v) != bound.end()) ++cut;
    if (cut == 0) {
      choice.r_per_output.push_back(0);
      continue;
    }
    OutputClasses classes;
    if (scorers == nullptr) {
      classes = classes_on_bdd(fns[i], bound, seed);
      ++used.bdd;
    } else if (auto* t = std::get_if<tt::IsfTables>(&(*scorers)[i])) {
      classes = classes_on_tt(*t, bound, seed);
      ++used.tt;
    } else {
      classes = classes_on_dag(std::get<bdd::CofactorDag>((*scorers)[i]), bound, seed);
      ++used.bdd;
    }
    const int r = code_length(classes.colors);
    choice.r_per_output.push_back(r);
    choice.benefit += cut - r;
    choice.sum_r += r;
    cut_outputs.push_back(std::move(classes));
  }

  // Sharing potential: joint class count vs sum of individual code lengths.
  // A cheap equality-based joint count (no coloring) suffices to rank
  // candidates.
  if (cut_outputs.size() > 1)
    choice.sharing_gap = static_cast<int>(choice.sum_r) -
                         code_length(joint_class_count(cut_outputs));

  // The cross-check mode (MFD_CACHE_CHECK=1) also proves the truth-table
  // and DAG scorers against the reference in the shared manager, evaluation
  // by evaluation.
  if (scorers != nullptr && !cut_outputs.empty() && cache::config().cross_check) {
    PathCounts ignored;
    const BoundSetChoice ref =
        evaluate_bound_set_fresh(fns, supports, bound, seed, nullptr, ignored);
    if (!same_scores(ref, choice)) {
      std::fprintf(stderr,
                   "scorer cross-check failed: tables and DAGs (benefit %ld,"
                   " gap %d) != shared-manager reference (benefit %ld, gap %d)\n",
                   choice.benefit, choice.sharing_gap, ref.benefit, ref.sharing_gap);
      std::abort();
    }
  }
  counts.tt += used.tt;
  counts.bdd += used.bdd;
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

/// The multiplicity-cache key that every candidate over `fns` shares.
cache::FunctionSet function_set_of(const std::vector<Isf>& fns,
                                   cache::SignatureComputer& sig, std::uint64_t seed) {
  std::vector<std::pair<bdd::Edge, bdd::Edge>> fn_edges;
  fn_edges.reserve(fns.size());
  for (const Isf& f : fns) fn_edges.emplace_back(f.on().id(), f.care().id());
  return cache::function_set(sig, fn_edges, seed);
}

BoundSetChoice evaluate_counted(const std::vector<Isf>& fns,
                                const std::vector<std::vector<int>>& supports,
                                const std::vector<int>& bound, std::uint64_t seed,
                                const cache::FunctionSet* set,
                                OutputScorers* scorers, PathCounts& counts) {
  // Whole-evaluation memoization (docs/CACHING.md): the choice is a pure
  // function of the candidate's (function semantics, bound variables, seed),
  // so a hit skips the cofactor enumeration and the ISF colorings
  // outright. Signatures are manager and order independent, so the entry is
  // shared across both portfolio runs. No set means no lookup (memo_allowed).
  if (set == nullptr)
    return evaluate_bound_set_fresh(fns, supports, bound, seed, scorers, counts);

  if (std::optional<cache::CandidateScores> hit = cache::lookup(*set, bound)) {
    BoundSetChoice choice{bound, hit->benefit, hit->sharing_gap, hit->sum_r,
                          std::move(hit->r_per_output)};
    if (cache::config().cross_check) {
      PathCounts ignored;
      const BoundSetChoice fresh =
          evaluate_bound_set_fresh(fns, supports, bound, seed, scorers, ignored);
      if (!same_scores(fresh, choice)) {
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

  BoundSetChoice choice =
      evaluate_bound_set_fresh(fns, supports, bound, seed, scorers, counts);
  cache::insert(*set, bound,
                {choice.benefit, choice.sharing_gap, choice.sum_r, choice.r_per_output});
  return choice;
}

}  // namespace

OutputScorers build_output_scorers(const std::vector<Isf>& fns,
                                   const std::vector<std::vector<int>>& supports) {
  OutputScorers scorers;
  scorers.reserve(fns.size());
  for (std::size_t i = 0; i < fns.size(); ++i) {
    if (supports[i].size() <= static_cast<std::size_t>(tt::kMaxVars))
      scorers.emplace_back(tt::isf_tables(fns[i], supports[i]));
    else
      scorers.emplace_back(std::in_place_type<bdd::CofactorDag>, *fns[i].manager(),
                           fns[i].on().id(), fns[i].care().id());
  }
  return scorers;
}

BoundSetChoice evaluate_bound_set(const std::vector<Isf>& fns,
                                  const std::vector<std::vector<int>>& supports,
                                  const std::vector<int>& bound,
                                  std::uint64_t seed,
                                  cache::SignatureComputer* sig,
                                  OutputScorers* scorers) {
  PathCounts counts;
  std::optional<cache::FunctionSet> set;
  if (sig != nullptr && memo_allowed()) set = function_set_of(fns, *sig, seed);
  BoundSetChoice choice = evaluate_counted(fns, supports, bound, seed,
                                           set ? &*set : nullptr, scorers, counts);
  publish(counts);
  return choice;
}

BoundSetChoice select_bound_set(const std::vector<Isf>& fns,
                                const std::vector<int>& order, int p,
                                const BoundSetOptions& opts) {
  const int n = static_cast<int>(order.size());
  std::vector<std::vector<int>> supports;
  supports.reserve(fns.size());
  for (const Isf& f : fns) supports.push_back(f.support());

  if (fault::armed()) fault::point("decomp.boundset");

  // Candidate evaluation is the search's unit of cost; under an installed
  // governor an expired deadline stops the search at the best bound set found
  // so far (possibly none, which sends the caller to the fallback path).
  ResourceGovernor* gov = ResourceGovernor::current();
  OutputScorers scorers = build_output_scorers(fns, supports);
  cache::SignatureComputer sig(*fns.front().manager());
  // Every candidate of the search shares one function set, built on the
  // first candidate that may use the cache.
  std::optional<cache::FunctionSet> set;
  PathCounts counts;

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
        if (!set) set = function_set_of(fns, sig, opts.seed);
        memo = &*set;
      }
      BoundSetChoice r =
          evaluate_counted(fns, supports, bound, opts.seed, memo, &scorers, counts);
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
  publish(counts);
  obs::add("boundset.searches");
  obs::add("boundset.candidates_evaluated", static_cast<std::uint64_t>(evaluations));
  if (!best.vars.empty()) obs::add("boundset.found");
  return best;
}

}  // namespace mfd
