// Windowed ODC/SDC resubstitution (contract and algorithm sketch in the
// header). The exactness argument lives here, next to the code that has to
// uphold it: a LUT t may change its value only on primary-input assignments
// where every window observable o satisfies S0_o(x) == S1_o(x) — o's value
// at x does not depend on t's value at x — so *any* new function for t
// leaves every observable, and hence every network output, bit-identical.
// Sensitivity is pointwise in x, which is what makes simultaneous flips at
// many assignments sound.
//
// The sweep is written once, over a signal-function type supplied by an
// adapter (TableSignals or BddSignals). Every decision it takes tests a
// function (is it constant?), never its representation, so both adapters
// yield the same windows, care sets, ISFs and rewrites. A refresh rebuilds
// every signal through net::walk (net/simulate.h) with the adapter's LUT
// rule, the walk that verification and simulation run too.
#include "net/odc_resubst.h"

#include <algorithm>
#include <cassert>
#include <new>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "core/budget.h"
#include "isf/isf.h"
#include "net/lutnet.h"
#include "net/simulate.h"
#include "obs/obs.h"
#include "tt/tt.h"

namespace mfd::net {
namespace {

constexpr int kWindowDepth = 3;   // fanout-cone BFS depth of the window
constexpr int kMaxConeLuts = 64;  // nodes with larger windows are skipped
constexpr int kMaxIters = 4;      // sweep fixpoint bound

/// Signal functions as packed truth tables over the n <= tt::kMaxVars
/// primary inputs (table variable i is primary input i): (PIs + LUTs) x 2^n
/// bits per sweep, no BDD node.
class TableSignals {
 public:
  using Fn = tt::TruthTable;
  explicit TableSignals(int num_inputs) : n_(num_inputs) {}

  Fn constant(bool value) const { return Fn(n_, value); }
  Fn input(int i) const { return Fn::var(n_, i); }
  template <typename Fanin>
  Fn lut(const tt::TruthTable& table, Fanin&& fanin) const {
    return compose_lut(table, n_, fanin);
  }
  static Fn negate(const Fn& f) { return ~f; }
  static bool is_constant(const Fn& f, bool value) { return f.is_constant(value); }
  void reorder() {}
  void end_sweep() {}

 private:
  int n_;
};

/// Signal functions as BDDs over the manager variables pi_vars, for networks
/// of any width. Sifts the manager once, after the first refresh;
/// garbage-collects between sweeps.
class BddSignals {
 public:
  using Fn = bdd::Bdd;
  BddSignals(bdd::Manager& m, const std::vector<int>& pi_vars) : m_(m), pi_vars_(pi_vars) {}

  Fn constant(bool value) { return value ? m_.bdd_true() : m_.bdd_false(); }
  Fn input(int i) { return m_.var(pi_vars_[static_cast<std::size_t>(i)]); }
  template <typename Fanin>
  Fn lut(const tt::TruthTable& table, Fanin&& fanin) {
    return tt::to_bdd(table, m_, fanin);
  }
  static Fn negate(const Fn& f) { return !f; }
  static bool is_constant(const Fn& f, bool value) {
    return value ? f.is_true() : f.is_false();
  }
  /// Sifts the manager while the sweep holds every signal function, so the
  /// order suits the windows' S0/S1 and ISF work [12,15]. Reordering charges
  /// no budget; max_growth bounds it.
  void reorder() {
    obs::ScopedPhase phase("sift");
    m_.sift();
  }
  void end_sweep() { m_.garbage_collect(); }

 private:
  bdd::Manager& m_;
  const std::vector<int>& pi_vars_;
};

/// Per-sweep view of the network: global signal functions, liveness,
/// fanouts.
template <typename Signals>
struct SweepState {
  using Fn = typename Signals::Fn;

  explicit SweepState(Signals& s) : sig(s) {}

  Signals& sig;
  SignalFunctions<Fn> fns;          // signal id -> function of the PIs
  std::vector<bool> live;           // by LUT index
  std::vector<std::vector<int>> fanouts;  // signal id -> consumer LUT indices
  std::vector<bool> is_po;          // signal id -> drives a primary output

  void refresh(const LutNetwork& net) {
    obs::ScopedPhase phase("refresh");
    fns.signals.clear();  // the old functions die before the new ones are built
    std::vector<Fn> inputs;
    inputs.reserve(static_cast<std::size_t>(net.num_primary_inputs()));
    for (int i = 0; i < net.num_primary_inputs(); ++i) inputs.push_back(sig.input(i));
    fns = walk(net, sig.constant(false), sig.constant(true), std::move(inputs),
               every_signal(net), [this](const tt::TruthTable& table, const auto& fanin) {
                 return sig.lut(table, fanin);
               });

    const std::size_t num_signals = fns.signals.size();
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
/// capped at kWindowDepth), in ascending LUT-index order per level set.
struct Window {
  std::vector<int> members;  // cone LUT indices, ascending (topo order)
  std::vector<int> level;    // parallel to members
  bool too_big = false;
};

template <typename Signals>
Window build_window(const LutNetwork& net, const SweepState<Signals>& st, int t_idx) {
  Window w;
  std::vector<int> dist(static_cast<std::size_t>(net.num_luts()), -1);
  std::vector<int> frontier = {t_idx};
  dist[static_cast<std::size_t>(t_idx)] = 0;
  for (int d = 1; d <= kWindowDepth && !frontier.empty(); ++d) {
    std::vector<int> next;
    for (int u : frontier) {
      for (int v : st.fanouts[static_cast<std::size_t>(net.lut_signal(u))]) {
        if (dist[static_cast<std::size_t>(v)] != -1) continue;
        dist[static_cast<std::size_t>(v)] = d;
        next.push_back(v);
        if (static_cast<int>(w.members.size()) + static_cast<int>(next.size()) >
            kMaxConeLuts) {
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
template <typename Signals>
typename Signals::Fn compute_care(const LutNetwork& net, const SweepState<Signals>& st,
                                  int t_idx, const Window& w) {
  using Fn = typename Signals::Fn;
  obs::ScopedPhase phase("care");
  const int t_sig = net.lut_signal(t_idx);
  if (st.is_po[static_cast<std::size_t>(t_sig)]) return st.fns.one;

  // S0/S1: each cone signal as a function of the primary inputs with t's
  // signal forced to 0 / 1. Members are in ascending (= topological) order.
  std::vector<Fn> s0(w.members.size()), s1(w.members.size());
  auto cone_pos = [&](int lut_idx) {
    const auto it =
        std::lower_bound(w.members.begin(), w.members.end(), lut_idx);
    if (it == w.members.end() || *it != lut_idx) return -1;
    return static_cast<int>(it - w.members.begin());
  };
  for (std::size_t i = 0; i < w.members.size(); ++i) {
    const Lut& lut = net.lut(w.members[i]);
    for (int value = 0; value < 2; ++value) {
      auto fanin = [&](int j) -> const Fn& {
        const int s = lut.inputs[static_cast<std::size_t>(j)];
        if (s == t_sig) return value ? st.fns.one : st.fns.zero;
        if (!net.is_constant(s) && !net.is_primary_input(s)) {
          const int p = cone_pos(net.lut_index(s));
          if (p != -1) return value ? s1[static_cast<std::size_t>(p)]
                                    : s0[static_cast<std::size_t>(p)];
        }
        return st.fns[s];
      };
      (value ? s1[i] : s0[i]) = st.sig.lut(lut.table, fanin);
    }
  }

  Fn care = st.fns.zero;
  for (std::size_t i = 0; i < w.members.size(); ++i) {
    const int u = w.members[i];
    const bool frontier = w.level[i] == kWindowDepth;
    const bool po = st.is_po[static_cast<std::size_t>(net.lut_signal(u))];
    if (!frontier && !po) continue;
    care |= s0[i] ^ s1[i];
    if (Signals::is_constant(care, true)) break;
  }
  return care;
}

/// Truth-table ISF of one LUT: care bit per fanin pattern, false when no
/// primary-input assignment both produces the pattern (SDC) and lands in
/// the ODC care set; on = care & the LUT's table, so on <= care. Returns
/// false when the table has no don't cares.
template <typename Signals>
bool table_isf(const LutNetwork& net, const SweepState<Signals>& st, int t_idx,
               const typename Signals::Fn& care_set, tt::TruthTable* on,
               tt::TruthTable* care) {
  using Fn = typename Signals::Fn;
  obs::ScopedPhase phase("isf");
  const Lut& lut = net.lut(t_idx);
  *care = tt::TruthTable(lut.table.num_vars());
  bool any_dc = false;
  for (std::uint64_t idx = 0; idx < care->num_minterms(); ++idx) {
    Fn producible = care_set;
    for (std::size_t j = 0;
         j < lut.inputs.size() && !Signals::is_constant(producible, false); ++j) {
      const Fn& in = st.fns[lut.inputs[j]];
      producible &= ((idx >> j) & 1) ? in : Signals::negate(in);
    }
    const bool cared = !Signals::is_constant(producible, false);
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
/// Coudert-Madre restrict of the on-set w.r.t. the care set on the run's
/// local manager `lm` (variable j = j-th surviving fanin). The first refit
/// that needs it makes it, a wider one adds variables, and each refit
/// collects all it built, so every refit starts as empty as a fresh manager.
Lut fill_extension(const Lut& old, const tt::TruthTable& on,
                   const tt::TruthTable& care, const std::vector<int>& rem,
                   std::optional<bdd::Manager>& lm) {
  Lut out;
  if (rem.empty()) {
    out.table = tt::TruthTable(0, on[0]);
    return out;
  }
  const int k = static_cast<int>(rem.size());
  if (!lm) lm.emplace(k);
  while (lm->num_vars() < k) lm->add_var();
  std::vector<int> vars(rem.size());
  for (int j = 0; j < k; ++j) vars[static_cast<std::size_t>(j)] = j;
  tt::TruthTable table;
  {
    auto var = [&lm](int j) { return lm->var(j); };
    const bdd::Bdd ext =
        Isf(tt::to_bdd(on, *lm, var), tt::to_bdd(care, *lm, var)).extension_small();
    table = tt::from_bdd(*lm, {ext.id()}, vars).front();
  }
  lm->garbage_collect();
  // remove_compatible_inputs kept each fanin because its cofactors disagree
  // where both care, so every extension depends on it.
  for (int r = 0; r < k; ++r) assert(table.depends_on(r));

  out.inputs.reserve(rem.size());
  for (int r : rem) out.inputs.push_back(old.inputs[static_cast<std::size_t>(r)]);
  out.table = std::move(table);
  return out;
}

/// Re-minimizes LUT `old` under its ISF (on, care) into *out: drops
/// compatible fanins, then fills the remaining don't cares on `lm`. Returns
/// false (leaving *out alone) when no fanin could be dropped: nothing
/// strictly won.
bool refit(const Lut& old, tt::TruthTable on, tt::TruthTable care, Lut* out,
           std::optional<bdd::Manager>& lm) {
  obs::ScopedPhase phase("refit");
  std::vector<int> rem(old.inputs.size());
  std::iota(rem.begin(), rem.end(), 0);
  remove_compatible_inputs(&on, &care, &rem);
  if (rem.size() == old.inputs.size()) return false;
  *out = fill_extension(old, on, care, rem, lm);
  return true;
}

/// The sweeps of the pass over one signal-function adapter. Returns whether
/// a completed sweep changed the network.
template <typename Signals>
bool sweep(LutNetwork& net, Signals& sig, int lut_inputs) {
  ResourceGovernor* governor = ResourceGovernor::current();
  std::optional<bdd::Manager> refit_manager;  // one per run, made by the first refit
  bool any = false;
  try {
    SweepState<Signals> st(sig);
    for (int iter = 0; iter < kMaxIters; ++iter) {
      obs::add("pass.odc.sweeps");
      st.refresh(net);
      if (iter == 0) sig.reorder();
      bool changed = false;
      for (int t = 0; t < net.num_luts(); ++t) {
        if (!st.live[static_cast<std::size_t>(t)]) continue;
        if (governor != nullptr) governor->check_deadline("pass.odc");
        obs::add("pass.odc.nodes_scanned");

        const Window w = build_window(net, st, t);
        if (w.too_big) {
          obs::add("pass.odc.cone_skips");
          continue;
        }
        const typename Signals::Fn care_set = compute_care(net, st, t, w);

        tt::TruthTable on, care;
        if (!table_isf(net, st, t, care_set, &on, &care)) continue;

        const Lut& old = net.lut(t);
        Lut repl;
        if (!refit(old, std::move(on), std::move(care), &repl, refit_manager)) continue;
        const int saved =
            static_cast<int>(old.inputs.size() - repl.inputs.size());
        net.replace_lut(t, std::move(repl));
        obs::add("pass.odc.rewrites");
        obs::add("pass.odc.fanins_removed", static_cast<std::uint64_t>(saved));
        changed = true;
        // Downstream signal functions changed (on don't-care assignments
        // only, but changed): refresh before judging the next node.
        st.refresh(net);
      }
      if (!changed) break;
      any = true;
      {
        obs::ScopedPhase phase("refit");
        net.simplify();
        net.collapse(lut_inputs);
      }
      sig.end_sweep();
    }
  } catch (const BudgetExceeded&) {
    // Optional quality pass: keep the (always-valid) network we have and let
    // the rest of the pipeline proceed rather than re-entering the ladder.
    obs::add("pass.odc.budget_aborts");
  } catch (const std::bad_alloc&) {
    // An allocation failure (a BDD node the manager could not allocate)
    // ends the pass the same way, keeping the network.
    obs::add("pass.odc.alloc_aborts");
  }
  return any;
}

}  // namespace

bool OdcResubstPass::run(LutNetwork& net, PassContext& ctx) {
  if (ctx.manager == nullptr || ctx.pi_vars == nullptr) return false;
  if (net.num_primary_inputs() <= tt::kMaxVars) {
    obs::add("pass.odc.tt_runs");
    TableSignals sig(net.num_primary_inputs());
    return sweep(net, sig, lut_inputs_);
  }
  obs::add("pass.odc.bdd_runs");
  BddSignals sig(*ctx.manager, *ctx.pi_vars);
  return sweep(net, sig, lut_inputs_);
}

}  // namespace mfd::net
