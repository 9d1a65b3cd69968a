// Signal emission units of the decomposition driver (see driver.h for the
// file split): single-LUT extensions, direct BDD-mux mapping, the Shannon
// fallback, and the combined structural fallback the ladder floor uses.
#include <algorithm>
#include <unordered_map>

#include "decomp/driver.h"
#include "net/baselines.h"
#include "obs/obs.h"
#include "tt/tt.h"

namespace mfd::decomp {
namespace {

/// In the no-profitable-bound-set fallback, only outputs with at most this
/// many support variables are Shannon-split; wider ones are emitted as
/// direct BDD mux networks (a Shannon cascade over a wide support can fan
/// out exponentially).
constexpr int kShannonSupportLimit = 12;

/// sel ? d1 : d0 as one 3-input LUT (inputs sel, d1, d0), or as three
/// two-input gates when the fanin bound is 2.
int emit_mux(Ctx& c, int sel, int d1, int d0) {
  if (c.opts.lut_inputs >= 3)
    return c.net.add_lut({{sel, d1, d0}, tt::TruthTable::from_word(3, 0xD8)});
  return net::GateBuilder(c.net).mux(sel, d1, d0);
}

}  // namespace

std::vector<int> union_of_supports(const std::vector<Isf>& fns) {
  std::vector<int> active;
  for (const Isf& f : fns) {
    std::vector<int> s = f.support();
    std::vector<int> merged;
    std::set_union(active.begin(), active.end(), s.begin(), s.end(),
                   std::back_inserter(merged));
    active = std::move(merged);
  }
  return active;
}

int emit_small(Ctx& c, const bdd::Bdd& ext) {
  bdd::Manager& m = c.m;
  const bdd::Edge g = ext.id();
  const std::vector<int> supp = m.support(g);
  if (supp.empty()) return g == bdd::kTrue ? net::kConst1 : net::kConst0;

  net::Lut lut;
  lut.inputs.reserve(supp.size());
  for (int v : supp) lut.inputs.push_back(c.signal_of(v));
  lut.table = tt::from_bdd(m, {g}, supp).front();
  return c.net.add_lut(std::move(lut));
}

int emit_bdd_muxes(Ctx& c, const Isf& f) {
  bdd::Manager& m = c.m;
  const bdd::Bdd ext = f.extension_small();
  const bdd::Edge root = ext.id();
  std::unordered_map<bdd::Edge, int> signal;
  signal.emplace(bdd::kFalse, net::kConst0);
  signal.emplace(bdd::kTrue, net::kConst1);

  auto rec = [&](auto&& self, bdd::Edge n) -> int {
    const auto it = signal.find(n);
    if (it != signal.end()) return it->second;
    const int lo = self(self, m.node_lo(n));
    const int hi = self(self, m.node_hi(n));
    const int out = emit_mux(c, c.signal_of(static_cast<int>(m.node_var(n))), hi, lo);
    signal.emplace(n, out);
    return out;
  };
  return rec(rec, root);
}

std::vector<int> shannon_step(Ctx& c, const std::vector<Isf>& fns,
                              const std::vector<int>& ids, int depth) {
  ++c.stats.shannon_fallbacks;
  obs::add("decomp.shannon_fallbacks");
  bdd::Manager& m = c.m;

  // Split on the variable occurring in the most supports.
  std::vector<int> active = union_of_supports(fns);
  int split = active.front();
  int best_count = -1;
  for (int v : active) {
    int count = 0;
    for (const Isf& f : fns) {
      const std::vector<int> s = f.support();
      if (std::binary_search(s.begin(), s.end(), v)) ++count;
    }
    if (count > best_count) {
      best_count = count;
      split = v;
    }
  }

  std::vector<Isf> halves;
  std::vector<int> half_ids;
  halves.reserve(fns.size() * 2);
  half_ids.reserve(fns.size() * 2);
  for (std::size_t i = 0; i < fns.size(); ++i) {
    halves.push_back(fns[i].cofactor(split, false));
    halves.push_back(fns[i].cofactor(split, true));
    half_ids.push_back(ids[i]);
    half_ids.push_back(ids[i]);
  }
  obs::ScopedPhase recurse_phase("recurse");
  const std::vector<int> sub = synth(c, std::move(halves), half_ids, depth + 1);

  const int sel = c.signal_of(split);
  std::vector<int> result(fns.size());
  for (std::size_t i = 0; i < fns.size(); ++i) {
    const int s0 = sub[2 * i], s1 = sub[2 * i + 1];
    c.record_level(ids[i]);
    result[i] = emit_mux(c, sel, s1, s0);
  }
  m.garbage_collect();
  return result;
}

std::vector<int> fallback_emit(Ctx& c, const std::vector<Isf>& work,
                               const std::vector<int>& ids, int depth) {
  std::vector<int> sigs(work.size(), net::kConst0);
  std::vector<int> small_idx;
  std::vector<Isf> small_fns;
  std::vector<int> small_ids;
  for (std::size_t i = 0; i < work.size(); ++i) {
    if (static_cast<int>(work[i].support().size()) <= kShannonSupportLimit) {
      small_idx.push_back(static_cast<int>(i));
      small_fns.push_back(work[i]);
      small_ids.push_back(ids[i]);
    } else {
      sigs[i] = emit_bdd_muxes(c, work[i]);
      c.record_level(ids[i]);
      ++c.stats.bdd_mux_fallbacks;
      obs::add("decomp.bdd_mux_fallbacks");
    }
  }
  if (!small_fns.empty()) {
    const std::vector<int> sub = shannon_step(c, small_fns, small_ids, depth);
    for (std::size_t i = 0; i < small_idx.size(); ++i)
      sigs[static_cast<std::size_t>(small_idx[i])] = sub[i];
  }
  return sigs;
}

}  // namespace mfd::decomp
