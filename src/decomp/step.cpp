// One full decomposition step (see driver.h for the file split): DC step 1
// (symmetrization), variable-order seeding, the bound-set search, DC steps
// 2 and 3 over the chosen bound set, encoding, decomposition-function
// emission (single LUTs or an alpha recursion), and the composition-function
// recursion. Falls back to structural emission when no bound set pays.
#include <algorithm>
#include <cassert>
#include <climits>

#include "decomp/compat.h"
#include "decomp/dc_assign.h"
#include "decomp/driver.h"
#include "decomp/encoding.h"
#include "obs/obs.h"
#include "sym/symmetrize.h"
#include "sym/symmetry.h"
#include "tt/tt.h"

namespace mfd::decomp {
namespace {

/// Step 1 (symmetrize) is skipped above this many active variables: it
/// scans all pairs.
constexpr int kSymmetrizeMaxVars = 24;
/// The top-level symmetric sifting pass runs only while the manager holds
/// at most this many live nodes after a collection (reordering cost grows
/// with the tables).
constexpr std::size_t kSiftMaxLiveNodes = 20000;

/// Window-seed order for the bound-set search: symmetry groups stay
/// contiguous; groups are chained greedily by support co-occurrence
/// (the group sharing the most outputs with the previously placed one goes
/// next), so windows cover variables that actually appear together.
std::vector<int> seed_order(const std::vector<OutputView>& views,
                            const std::vector<std::vector<int>>& groups) {
  const int ng = static_cast<int>(groups.size());
  // Bitmask of outputs using each group (outputs beyond 64 fold over).
  std::vector<std::uint64_t> uses(static_cast<std::size_t>(ng), 0);
  std::vector<int> freq(static_cast<std::size_t>(ng), 0);
  for (std::size_t o = 0; o < views.size(); ++o) {
    const std::vector<int>& supp = views[o].support();
    for (int g = 0; g < ng; ++g) {
      for (int v : groups[static_cast<std::size_t>(g)]) {
        if (std::binary_search(supp.begin(), supp.end(), v)) {
          uses[static_cast<std::size_t>(g)] |= std::uint64_t{1} << (o % 64);
          ++freq[static_cast<std::size_t>(g)];
          break;
        }
      }
    }
  }
  std::vector<bool> placed(static_cast<std::size_t>(ng), false);
  std::vector<int> order;
  int last = -1;
  for (int step = 0; step < ng; ++step) {
    int best = -1;
    long best_key = -1;
    for (int g = 0; g < ng; ++g) {
      if (placed[static_cast<std::size_t>(g)]) continue;
      const long common =
          last == -1 ? 0
                     : static_cast<long>(__builtin_popcountll(
                           uses[static_cast<std::size_t>(g)] &
                           uses[static_cast<std::size_t>(last)]));
      const long key = common * 1024 + freq[static_cast<std::size_t>(g)];
      if (key > best_key) {
        best_key = key;
        best = g;
      }
    }
    placed[static_cast<std::size_t>(best)] = true;
    last = best;
    for (int v : groups[static_cast<std::size_t>(best)]) order.push_back(v);
  }
  return order;
}

}  // namespace

std::vector<int> decomposition_step(Ctx& c, std::vector<Isf> work,
                                    const std::vector<int>& work_ids, int depth) {
  bdd::Manager& m = c.m;
  const int k = c.opts.lut_inputs;
  std::vector<int> active = union_of_supports(work);

  // Step 1, the order seed and the bound-set search ask their questions of
  // one view per output. The views own the functions until the search ends,
  // so symmetrize rewrites each function in one place.
  std::vector<OutputView> views = output_views(std::move(work));

  // ---- step 1: symmetrize --------------------------------------------
  if (c.opts.exploit_dc && c.opts.dc_symmetrize &&
      static_cast<int>(active.size()) <= kSymmetrizeMaxVars) {
    obs::ScopedPhase phase("symmetrize");
    const SymmetrizeStats s = symmetrize(views, active);
    c.stats.symmetrized_pairs += s.ne_applied + s.e_applied;
  }

  // ---- variable order seed ---------------------------------------------
  // The bound-set search scans windows of this order, so what matters is
  // that symmetric variables sit together and co-occurring variables are
  // near each other. With enumeration-based ncc the BDD order itself is
  // semantically irrelevant: every level uses seed_order's cheap group/
  // co-occurrence order, and the one symmetric sifting pass at the top (the
  // paper's seed [12,15]) only shrinks the working BDDs, which pays only
  // where a view reads them: a DAG view, imported in the new order, is
  // smaller, while a view on truth tables never reads the order. So the
  // pass runs only when some view is a DAG. The collection before it runs
  // in every top-level step: it frees whatever garbage step 1 or an earlier
  // flow left behind, which a node ceiling would charge, and the gate then
  // counts what the pass would reorder, the live functions. After a sift
  // the views build their tables and DAGs again, in the new order.
  const std::vector<std::vector<int>> groups = symmetry_groups(views, active);
  if (depth == 0) {
    m.garbage_collect();
    const bool dag_view = std::any_of(views.begin(), views.end(),
                                      [](const OutputView& v) { return !v.on_tables(); });
    if (dag_view && m.live_node_count() <= kSiftMaxLiveNodes) {
      obs::ScopedPhase phase("sift");
      obs::add("decomp.sift_runs");
      m.sift_symmetric(groups, /*max_growth=*/1.2);
      for (OutputView& v : views) v.rebuild();
    }
  }
  const std::vector<int> order = seed_order(views, groups);

  // ---- bound set -----------------------------------------------------------
  BoundSetOptions bopts = c.opts.boundset;
  // Candidate evaluation costs O(outputs * 2^p) BDD work; keep the total
  // search effort roughly constant as the output count grows.
  bopts.max_evaluations = std::max(
      24, bopts.max_evaluations / std::max<int>(1, static_cast<int>(views.size()) / 8));

  // Estimated LUTs to realize one decomposition function of q inputs.
  auto alpha_tree_luts = [&](int q) { return (q - 1 + (k - 2)) / (k - 1); };
  // Penalty-adjusted benefit: oversized bound sets pay for the extra LUTs
  // their decomposition functions need.
  auto adjusted_benefit = [&](const BoundSetChoice& ch) {
    if (ch.vars.empty()) return LONG_MIN;
    const int q = static_cast<int>(ch.vars.size());
    if (q <= k) return ch.benefit;
    int est_alphas = 0;
    for (int r : ch.r_per_output) est_alphas = std::max(est_alphas, r);
    if (c.opts.share_functions)
      est_alphas = std::max<int>(est_alphas, static_cast<int>(ch.sum_r) - ch.sharing_gap);
    else
      est_alphas = static_cast<int>(ch.sum_r);
    return ch.benefit - static_cast<long>(est_alphas) * (alpha_tree_luts(q) - 1);
  };

  const int base_p = std::min(k, static_cast<int>(active.size()) - 1);
  const int max_p = std::min(k + std::max(0, c.opts.max_bound_extra),
                             static_cast<int>(active.size()) - 1);
  BoundSetChoice choice;
  if (base_p >= 2) {
    obs::ScopedPhase boundset_phase("boundset");
    choice = select_bound_set(views, order, base_p, c.opts.seed, bopts);
    // An oversized bound set recurses on its decomposition functions, whose
    // real cost the estimate below can only bound loosely — require it to beat the in-budget bound set before accepting one. The
    // Synthesizer-level portfolio (see core/synthesizer.cpp) protects
    // against the cases where even that is too optimistic.
    for (int p = base_p + 1; p <= max_p; ++p) {
      BoundSetChoice cand = select_bound_set(views, order, p, c.opts.seed, bopts);
      const long cur = std::max(0L, adjusted_benefit(choice));
      if (choice.vars.empty() || adjusted_benefit(cand) > cur)
        choice = std::move(cand);
    }
  }
  work.clear();
  for (const OutputView& v : views) work.push_back(v.isf());
  const bool pays = !choice.vars.empty() && adjusted_benefit(choice) > 0;
  const std::vector<int>& bound = choice.vars;

  // ---- steps 2 + 3: don't-care assignment over the bound set -----------
  // Step 2 reads each output's classes from its view, on its tables or DAG,
  // so it tests no pair in the shared manager. The boundset.* counters count
  // only the search's queries: nothing publishes these. The views die, with
  // their tables and DAGs, before the cofactor tables make nodes, so the two
  // never add up to the step's peak memory (keeping the views until the
  // merge raised table1-noodc's peak RSS by about 5%). So step 2's phase is
  // entered twice: for the views' classes, and for the merge.
  const bool joint_step = c.opts.exploit_dc && c.opts.dc_joint;
  std::vector<BoundClasses> classes;
  if (pays && joint_step) {
    obs::ScopedPhase phase("share");
    classes.resize(views.size());
    for (std::size_t o = 0; o < views.size(); ++o) views[o].classes(bound, classes[o]);
  }
  views.clear();
  if (!pays) return fallback_emit(c, work, work_ids, depth);

  std::vector<CofactorTable> tables;
  tables.reserve(work.size());
  for (const Isf& f : work) tables.push_back(cofactor_table(f, bound));

  if (joint_step) {
    obs::ScopedPhase phase("share");
    assign_joint(tables, classes, c.opts.seed);
  }

  std::vector<std::vector<int>> partitions;
  if (c.opts.total_minimal_code) {
    // [10]-style: one joint partition for every output. Vertices with
    // identical cofactors across all outputs share a class; the shared code
    // of that partition is trivially strict for every output.
    if (c.opts.exploit_dc && c.opts.dc_per_output) assign_per_output(tables, c.opts.seed);
    JointClasses joint;
    joint.clear(bound.size());
    for (const CofactorTable& t : tables) {
      const std::vector<int> ids = partition_by_equality(t);
      joint.add(ids, num_classes(ids));
    }
    partitions.assign(tables.size(), joint.of_vertex());
  } else if (c.opts.exploit_dc && c.opts.dc_per_output) {
    obs::ScopedPhase phase("per_output");
    partitions = assign_per_output(tables, c.opts.seed);
  } else {
    partitions.reserve(tables.size());
    for (const CofactorTable& t : tables) partitions.push_back(partition_by_equality(t));
  }

  // ---- encode the decomposition functions ---------------------------------
  const Encoding enc = [&] {
    obs::ScopedPhase phase("encode");
    return encode_shared(partitions, static_cast<int>(bound.size()),
                         c.opts.share_functions);
  }();
  assert(encoding_is_valid(enc, partitions));

  // Re-check actual progress: the joint assignment optimizes sharing and may
  // cost individual outputs classes relative to the search's quick estimate,
  // and an oversized bound set must still pay for its alpha trees.
  {
    long actual_benefit = 0;
    std::vector<std::vector<int>> supports;
    for (const Isf& f : work) supports.push_back(f.support());
    for (std::size_t i = 0; i < work.size(); ++i) {
      int cut = 0;
      for (int v : supports[i])
        if (std::find(bound.begin(), bound.end(), v) != bound.end()) ++cut;
      actual_benefit += cut - code_length(num_classes(partitions[i]));
    }
    if (static_cast<int>(bound.size()) > k)
      actual_benefit -= static_cast<long>(enc.total_functions()) *
                        (alpha_tree_luts(static_cast<int>(bound.size())) - 1);
    if (actual_benefit <= 0)
      return fallback_emit(c, work, work_ids, depth);
  }
  ++c.stats.decomposition_steps;
  c.stats.total_decomposition_functions += enc.total_functions();
  c.stats.encoding_pool_hits += enc.pool_hits;
  for (std::size_t i = 0; i < work.size(); ++i) c.stats.sum_r += enc.r(static_cast<int>(i));
  obs::add("decomp.steps");
  obs::add("decomp.functions_emitted", static_cast<std::uint64_t>(enc.total_functions()));

  std::vector<int> code_vars(static_cast<std::size_t>(enc.total_functions()));
  if (static_cast<int>(bound.size()) <= k) {
    // Every decomposition function fits one LUT. A table equal to one
    // emitted earlier (for another output, or at an earlier step over the
    // same bound signals) becomes a duplicate LUT; decompose()'s closing
    // simplify() merges it into the earliest copy.
    for (int j = 0; j < enc.total_functions(); ++j) {
      net::Lut lut;
      for (int v : bound) lut.inputs.push_back(c.signal_of(v));
      lut.table = enc.functions[static_cast<std::size_t>(j)];
      const int sig = c.net.add_lut(std::move(lut));
      const int var = m.add_var();
      c.bind(var, sig);
      code_vars[static_cast<std::size_t>(j)] = var;
    }
  } else {
    // Oversized bound set: rebuild each alpha as a BDD over the bound
    // variables and decompose it recursively (Section 2: "decomposition has
    // to be applied recursively to alpha and g").
    std::vector<Isf> alpha_fns;
    alpha_fns.reserve(static_cast<std::size_t>(enc.total_functions()));
    for (const tt::TruthTable& fn : enc.functions)
      alpha_fns.push_back(Isf::completely_specified(tt::to_bdd(
          fn, m, [&](int j) { return m.var(bound[static_cast<std::size_t>(j)]); })));
    const std::vector<int> alpha_ids(alpha_fns.size(), kInternalId);
    obs::ScopedPhase recurse_phase("recurse");
    const std::vector<int> alpha_sigs =
        synth(c, std::move(alpha_fns), alpha_ids, depth + 1);
    for (int j = 0; j < enc.total_functions(); ++j) {
      const int var = m.add_var();
      c.bind(var, alpha_sigs[static_cast<std::size_t>(j)]);
      code_vars[static_cast<std::size_t>(j)] = var;
    }
  }

  // ---- build the composition functions ------------------------------------
  // g_i is a multiplexer over output i's code bits. Each bound vertex's
  // (on, care) cofactor joins the leaf of its code word; a code no vertex
  // uses stays 0/0, a don't care. Then each code bit, highest first, halves
  // the leaves with one ite per pair until one is left.
  std::vector<Isf> g_fns;
  g_fns.reserve(work.size());
  for (std::size_t i = 0; i < work.size(); ++i) {
    const auto& used = enc.used[i];
    std::vector<bdd::Bdd> on(std::size_t{1} << used.size(), m.bdd_false());
    std::vector<bdd::Bdd> care(on.size(), m.bdd_false());
    for (std::size_t v = 0; v < tables[i].entries.size(); ++v) {
      const std::uint32_t code = enc.code_of(static_cast<int>(i), static_cast<int>(v));
      on[code] |= tables[i].entries[v].on();
      care[code] |= tables[i].entries[v].care();
    }
    for (std::size_t j = used.size(); j-- > 0;) {
      const bdd::Bdd x = m.var(code_vars[static_cast<std::size_t>(used[j])]);
      const std::size_t half = std::size_t{1} << j;
      for (std::size_t c = 0; c < half; ++c) {
        on[c] = m.wrap(m.ite(x.id(), on[c + half].id(), on[c].id()));
        care[c] = m.wrap(m.ite(x.id(), care[c + half].id(), care[c].id()));
      }
    }
    g_fns.emplace_back(on[0], care[0]);
  }

  tables.clear();
  work.clear();
  m.garbage_collect();

  obs::ScopedPhase recurse_phase("recurse");
  return synth(c, std::move(g_fns), work_ids, depth + 1);
}

}  // namespace mfd::decomp
