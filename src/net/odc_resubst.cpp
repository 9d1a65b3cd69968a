// Windowed ODC/SDC resubstitution (contract and algorithm sketch in the
// header). The exactness argument lives here, next to the code that has to
// uphold it: a LUT t may change its value only on primary-input assignments
// where every window observable o satisfies S0_o(x) == S1_o(x) — o's value
// at x does not depend on t's value at x — so *any* new function for t
// leaves every observable, and hence every network output, bit-identical.
// Sensitivity is pointwise in x, which is what makes simultaneous flips at
// many assignments sound.
#include "net/odc_resubst.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/budget.h"
#include "isf/isf.h"
#include "net/lutnet.h"
#include "obs/obs.h"
#include "tt/tt.h"

namespace mfd::net {
namespace {

/// Per-sweep view of the network: global signal BDDs, liveness, fanouts.
struct SweepState {
  std::vector<bdd::Bdd> signal;     // signal id -> BDD over pi_vars
  std::vector<bool> live;           // by LUT index
  std::vector<std::vector<int>> fanouts;  // signal id -> consumer LUT indices
  std::vector<bool> is_po;          // signal id -> drives a primary output

  bdd::Bdd signal_bdd(const bdd::Manager& m, int s) const {
    if (s == kConst0) return const_cast<bdd::Manager&>(m).bdd_false();
    if (s == kConst1) return const_cast<bdd::Manager&>(m).bdd_true();
    return signal[static_cast<std::size_t>(s)];
  }

  void refresh(const LutNetwork& net, bdd::Manager& m,
               const std::vector<int>& pi_vars) {
    const std::size_t num_signals =
        static_cast<std::size_t>(net.num_primary_inputs() + net.num_luts());
    signal.assign(num_signals, bdd::Bdd());
    for (int i = 0; i < net.num_primary_inputs(); ++i)
      signal[static_cast<std::size_t>(i)] =
          m.var(pi_vars[static_cast<std::size_t>(i)]);
    for (int i = 0; i < net.num_luts(); ++i) {
      const Lut& lut = net.lut(i);
      signal[static_cast<std::size_t>(net.lut_signal(i))] = tt::to_bdd(lut.table, m, [&](int j) {
        return signal_bdd(m, lut.inputs[static_cast<std::size_t>(j)]);
      });
    }

    live = net.live_luts();
    fanouts.assign(num_signals, {});
    for (int i = 0; i < net.num_luts(); ++i) {
      if (!live[static_cast<std::size_t>(i)]) continue;
      for (int in : net.lut(i).inputs)
        if (!net.is_constant(in))
          fanouts[static_cast<std::size_t>(in)].push_back(i);
    }
    is_po.assign(num_signals, false);
    for (int s : net.outputs())
      if (!net.is_constant(s)) is_po[static_cast<std::size_t>(s)] = true;
  }
};

/// The fanout window of LUT t: members by BFS level (min distance from t,
/// capped at `depth`), in ascending LUT-index order per level set.
struct Window {
  std::vector<int> members;  // cone LUT indices, ascending (topo order)
  std::vector<int> level;    // parallel to members
  bool too_big = false;
};

Window build_window(const LutNetwork& net, const SweepState& st, int t_idx,
                    int depth, int max_luts) {
  Window w;
  std::vector<int> dist(static_cast<std::size_t>(net.num_luts()), -1);
  std::vector<int> frontier = {t_idx};
  dist[static_cast<std::size_t>(t_idx)] = 0;
  for (int d = 1; d <= depth && !frontier.empty(); ++d) {
    std::vector<int> next;
    for (int u : frontier) {
      for (int v : st.fanouts[static_cast<std::size_t>(net.lut_signal(u))]) {
        if (dist[static_cast<std::size_t>(v)] != -1) continue;
        dist[static_cast<std::size_t>(v)] = d;
        next.push_back(v);
        if (static_cast<int>(w.members.size()) + static_cast<int>(next.size()) >
            max_luts) {
          w.too_big = true;
          return w;
        }
      }
    }
    for (int v : next) w.members.push_back(v);
    frontier = std::move(next);
  }
  std::sort(w.members.begin(), w.members.end());
  w.level.reserve(w.members.size());
  for (int u : w.members) w.level.push_back(dist[static_cast<std::size_t>(u)]);
  return w;
}

/// Care set of LUT t over primary-input assignments: assignments where some
/// window observable is sensitive to t's value. Observables are cone members
/// that drive a primary output or sit on the window frontier (their
/// consumers were not explored); t itself being a PO makes everything care.
bdd::Bdd compute_care(const LutNetwork& net, const SweepState& st,
                      bdd::Manager& m, int t_idx, const Window& w, int depth) {
  const int t_sig = net.lut_signal(t_idx);
  if (st.is_po[static_cast<std::size_t>(t_sig)]) return m.bdd_true();

  // S0/S1: each cone signal as a function of the primary inputs with t's
  // signal forced to 0 / 1. Members are in ascending (= topological) order.
  std::vector<bdd::Bdd> s0(w.members.size()), s1(w.members.size());
  auto cone_pos = [&](int lut_idx) {
    const auto it =
        std::lower_bound(w.members.begin(), w.members.end(), lut_idx);
    if (it == w.members.end() || *it != lut_idx) return -1;
    return static_cast<int>(it - w.members.begin());
  };
  for (std::size_t i = 0; i < w.members.size(); ++i) {
    const Lut& lut = net.lut(w.members[i]);
    for (int value = 0; value < 2; ++value) {
      auto fanin = [&](int j) -> bdd::Bdd {
        const int s = lut.inputs[static_cast<std::size_t>(j)];
        if (s == t_sig) return value ? m.bdd_true() : m.bdd_false();
        if (!net.is_constant(s) && !net.is_primary_input(s)) {
          const int p = cone_pos(net.lut_index(s));
          if (p != -1) return value ? s1[static_cast<std::size_t>(p)]
                                    : s0[static_cast<std::size_t>(p)];
        }
        return st.signal_bdd(m, s);
      };
      (value ? s1[i] : s0[i]) = tt::to_bdd(lut.table, m, fanin);
    }
  }

  bdd::Bdd care = m.bdd_false();
  for (std::size_t i = 0; i < w.members.size(); ++i) {
    const int u = w.members[i];
    const bool frontier = w.level[i] == depth;
    const bool po = st.is_po[static_cast<std::size_t>(net.lut_signal(u))];
    if (!frontier && !po) continue;
    care |= s0[i] ^ s1[i];
    if (care.is_true()) break;
  }
  return care;
}

/// Truth-table ISF of one LUT: care bit per fanin pattern, false when no
/// primary-input assignment both produces the pattern (SDC) and lands in
/// the ODC care set; on = care & the LUT's table, so on <= care. Returns
/// false when the table has no don't cares.
bool table_isf(const LutNetwork& net, const SweepState& st, bdd::Manager& m,
               int t_idx, const bdd::Bdd& care_set, tt::TruthTable* on,
               tt::TruthTable* care) {
  const Lut& lut = net.lut(t_idx);
  *care = tt::TruthTable(lut.table.num_vars());
  bool any_dc = false;
  for (std::uint64_t idx = 0; idx < care->num_minterms(); ++idx) {
    bdd::Bdd producible = care_set;
    for (std::size_t j = 0; j < lut.inputs.size() && !producible.is_false();
         ++j) {
      const bdd::Bdd in = st.signal_bdd(m, lut.inputs[j]);
      producible &= ((idx >> j) & 1) ? in : !in;
    }
    const bool cared = !producible.is_false();
    care->set(idx, cared);
    any_dc |= !cared;
  }
  *on = *care & lut.table;
  return any_dc;
}

/// Greedy compatible-fanin elimination on a truth-table ISF (on <= care):
/// drop variable r when its two cofactors agree wherever both care, merging
/// them. Repeats until no variable is removable. `rem` receives the
/// surviving positions (indices into the original fanin list), ascending.
void remove_compatible_inputs(tt::TruthTable* on, tt::TruthTable* care,
                              std::vector<int>* rem) {
  bool removed = true;
  while (removed && !rem->empty()) {
    removed = false;
    for (std::size_t r = 0; r < rem->size(); ++r) {
      const int v = static_cast<int>(r);
      const tt::TruthTable on0 = on->cofactor(v, false), on1 = on->cofactor(v, true);
      const tt::TruthTable care0 = care->cofactor(v, false), care1 = care->cofactor(v, true);
      if (!((on0 ^ on1) & care0 & care1).is_constant(false)) continue;
      *on = on0 | on1;
      *care = care0 | care1;
      rem->erase(rem->begin() + static_cast<std::ptrdiff_t>(r));
      removed = true;
      break;  // variables shifted; restart the scan
    }
  }
}

/// Completes the remaining don't cares, preferring a small representation:
/// Coudert-Madre restrict of the on-set w.r.t. the care set on a throwaway
/// local manager (one variable per surviving fanin), then drops fanins the
/// chosen extension turned inessential. One pass over the care cubes builds
/// both BDDs (on <= care), so each cube is built once.
Lut fill_extension(const Lut& old, const tt::TruthTable& on,
                   const tt::TruthTable& care, std::vector<int> rem) {
  Lut out;
  if (rem.empty()) {
    out.table = tt::TruthTable(0, on[0]);
    return out;
  }
  const int k = static_cast<int>(rem.size());
  bdd::Manager lm(k);
  bdd::Bdd on_b = lm.bdd_false(), care_b = lm.bdd_false();
  tt::for_each_cube(care, lm, [&lm](int j) { return lm.var(j); },
                    [&](std::uint64_t idx, const bdd::Bdd& cube) {
                      care_b |= cube;
                      if (on[idx]) on_b |= cube;
                    });
  const bdd::Bdd ext = Isf(on_b, care_b).extension_small();
  std::vector<int> vars(rem.size());
  for (int j = 0; j < k; ++j) vars[static_cast<std::size_t>(j)] = j;
  tt::TruthTable table = tt::from_bdd(lm, {ext.id()}, vars).front();

  // The extension may not depend on every surviving fanin: drop those.
  for (int r = k; r-- > 0;) {
    if (table.depends_on(r)) continue;
    table = table.cofactor(r, false);
    rem.erase(rem.begin() + r);
  }

  out.inputs.reserve(rem.size());
  for (int r : rem) out.inputs.push_back(old.inputs[static_cast<std::size_t>(r)]);
  out.table = std::move(table);
  return out;
}

}  // namespace

bool OdcResubstPass::run(LutNetwork& net, PassContext& ctx) {
  if (ctx.manager == nullptr || ctx.pi_vars == nullptr) return false;
  bdd::Manager& m = *ctx.manager;
  bdd::Manager::GovernorBinding bind(m, ctx.governor);

  bool any = false;
  try {
    SweepState st;
    for (int iter = 0; iter < opts_.max_iters; ++iter) {
      obs::add("pass.odc.sweeps");
      st.refresh(net, m, *ctx.pi_vars);
      bool changed = false;
      for (int t = 0; t < net.num_luts(); ++t) {
        if (!st.live[static_cast<std::size_t>(t)]) continue;
        if (ctx.governor != nullptr) ctx.governor->check_deadline("pass.odc");
        obs::add("pass.odc.nodes_scanned");

        const Window w = build_window(net, st, t, opts_.window_depth,
                                      opts_.max_cone_luts);
        if (w.too_big) {
          obs::add("pass.odc.cone_skips");
          continue;
        }
        const bdd::Bdd care_set =
            compute_care(net, st, m, t, w, opts_.window_depth);

        tt::TruthTable on, care;
        if (!table_isf(net, st, m, t, care_set, &on, &care)) continue;

        const Lut& old = net.lut(t);
        std::vector<int> rem(old.inputs.size());
        for (std::size_t j = 0; j < rem.size(); ++j)
          rem[j] = static_cast<int>(j);
        remove_compatible_inputs(&on, &care, &rem);
        if (rem.size() == old.inputs.size()) continue;  // nothing strictly won

        Lut repl = fill_extension(old, on, care, std::move(rem));
        const int saved =
            static_cast<int>(old.inputs.size() - repl.inputs.size());
        net.replace_lut(t, std::move(repl));
        obs::add("pass.odc.rewrites");
        obs::add("pass.odc.fanins_removed", static_cast<std::uint64_t>(saved));
        changed = true;
        // Downstream signal functions changed (on don't-care assignments
        // only, but changed): refresh before judging the next node.
        st.refresh(net, m, *ctx.pi_vars);
      }
      if (!changed) break;
      any = true;
      net.simplify();
      net.collapse(opts_.lut_inputs);
      m.garbage_collect();
    }
  } catch (const BudgetExceeded&) {
    // Optional quality pass: keep the (always-valid) network we have and let
    // the rest of the pipeline proceed rather than re-entering the ladder.
    obs::add("pass.odc.budget_aborts");
  }
  return any;
}

}  // namespace mfd::net
