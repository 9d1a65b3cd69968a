#include "net/simulate.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <sstream>

#include "util/rng.h"

namespace mfd::net {
namespace {

/// A network wider than tt::kMaxVars inputs is simulated on 2^kSampleVars
/// = 2048 random vectors: the minterms of random tables over 11 variables.
constexpr int kSampleVars = 11;

}  // namespace

std::vector<int> every_signal(const LutNetwork& net) {
  std::vector<int> signals(static_cast<std::size_t>(net.num_primary_inputs() + net.num_luts()));
  std::iota(signals.begin(), signals.end(), 0);
  return signals;
}

SignalFunctions<tt::TruthTable> simulate(const LutNetwork& net,
                                         std::vector<tt::TruthTable> pi_tables) {
  const int n = pi_tables.empty() ? 0 : pi_tables.front().num_vars();
  return walk(net, tt::TruthTable(n, false), tt::TruthTable(n, true), std::move(pi_tables),
              every_signal(net), [n](const tt::TruthTable& table, const auto& fanin) {
                return compose_lut(table, n, fanin);
              });
}

std::vector<bdd::Bdd> output_bdds(const LutNetwork& net, bdd::Manager& m,
                                  const std::vector<int>& pi_vars) {
  std::vector<bdd::Bdd> inputs;
  inputs.reserve(static_cast<std::size_t>(net.num_primary_inputs()));
  for (int i = 0; i < net.num_primary_inputs(); ++i)
    inputs.push_back(m.var(pi_vars[static_cast<std::size_t>(i)]));
  return walk(net, m.bdd_false(), m.bdd_true(), std::move(inputs), net.outputs(),
              [&m](const tt::TruthTable& table, const auto& fanin) {
                return tt::to_bdd(table, m, fanin);
              })
      .outputs(net);
}

bool check_exact(const LutNetwork& net, const std::vector<Isf>& spec,
                 const std::vector<int>& pi_vars, std::string* error) {
  if (spec.size() != static_cast<std::size_t>(net.num_outputs())) {
    if (error) *error = "output count mismatch";
    return false;
  }
  if (spec.empty()) return true;
  bdd::Manager& m = *spec.front().manager();
  const std::vector<bdd::Bdd> outs = output_bdds(net, m, pi_vars);
  for (std::size_t i = 0; i < outs.size(); ++i) {
    if (spec[i].admits(outs[i])) continue;
    if (error) {
      const bdd::Bdd bad = (spec[i].on() ^ outs[i]) & spec[i].care();
      const auto witness = m.pick_one(bad.id());
      std::ostringstream os;
      os << "output " << i << " disagrees with spec on care set; witness:";
      for (std::size_t v = 0; v < witness.size(); ++v)
        if (witness[v]) os << " x" << v;
      *error = os.str();
    }
    return false;
  }
  return true;
}

bool check_by_simulation(const LutNetwork& net, const std::vector<Isf>& spec,
                         const std::vector<int>& pi_vars, std::uint64_t seed,
                         std::string* error) {
  if (spec.size() != static_cast<std::size_t>(net.num_outputs())) {
    if (error) *error = "output count mismatch";
    return false;
  }
  if (spec.empty()) return true;
  bdd::Manager& m = *spec.front().manager();
  const int n = net.num_primary_inputs();
  // Vector v sets primary input i to bit v of its table: the 2^n minterms
  // of the projections, or 2^kSampleVars seeded random vectors.
  std::vector<tt::TruthTable> pi_tables;
  pi_tables.reserve(static_cast<std::size_t>(n));
  if (n <= tt::kMaxVars) {
    for (int i = 0; i < n; ++i) pi_tables.push_back(tt::TruthTable::var(n, i));
  } else {
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      tt::TruthTable t(kSampleVars);
      for (std::size_t w = 0; w < t.num_words(); ++w) t.data()[w] = rng.next();
      pi_tables.push_back(std::move(t));
    }
  }
  const SignalFunctions<tt::TruthTable> fns = simulate(net, std::move(pi_tables));
  auto fail = [&](std::size_t o, std::uint64_t v) {
    if (error) {
      std::ostringstream os;
      os << "output " << o << " wrong under vector ";
      for (int i = 0; i < n; ++i)
        os << (fns.signals[static_cast<std::size_t>(i)][v] ? '1' : '0');
      *error = os.str();
    }
    return false;
  };

  if (n <= tt::kMaxVars) {
    // The spec's on and care tables over the inputs' variables, read once; a
    // variable outside pi_vars reads as 0. Table bit v is then vector v.
    const std::vector<int> vars(pi_vars.begin(), pi_vars.begin() + n);
    std::vector<bdd::Bdd> held;  // the roots, referenced while the next are built
    for (const Isf& f : spec)
      for (const bdd::Bdd& root : {f.on(), f.care()}) {
        std::vector<std::pair<int, bool>> outside;
        for (const int v : m.support(root.id()))
          if (std::find(vars.begin(), vars.end(), v) == vars.end()) outside.emplace_back(v, false);
        held.push_back(outside.empty() ? root : m.wrap(m.cofactor_cube(root.id(), outside)));
      }
    std::vector<bdd::Edge> roots;
    for (const bdd::Bdd& root : held) roots.push_back(root.id());
    const std::vector<tt::TruthTable> tables = tt::from_bdd(m, roots, vars);
    // The first failing vector is the lowest wrong bit over the outputs, the
    // first output on a tie. A table of fewer than six variables repeats in
    // its word, so its lowest wrong bit is a vector.
    const std::size_t words = tt::num_words(n);
    for (std::size_t w = 0; w < words; ++w) {
      int first = 64;
      std::size_t first_output = 0;
      for (std::size_t o = 0; o < spec.size(); ++o) {
        const std::uint64_t* on = tables[2 * o].data();
        const std::uint64_t* care = tables[2 * o + 1].data();
        const std::uint64_t wrong = (fns[net.outputs()[o]].data()[w] ^ on[w]) & care[w];
        if (wrong != 0 && std::countr_zero(wrong) < first) {
          first = std::countr_zero(wrong);
          first_output = o;
        }
      }
      if (first < 64) return fail(first_output, w * 64 + static_cast<std::uint64_t>(first));
    }
    return true;
  }

  std::vector<bool> assignment(static_cast<std::size_t>(m.num_vars()), false);
  for (std::uint64_t v = 0; v < (std::uint64_t{1} << kSampleVars); ++v) {
    for (int i = 0; i < n; ++i)
      assignment[static_cast<std::size_t>(pi_vars[static_cast<std::size_t>(i)])] =
          fns.signals[static_cast<std::size_t>(i)][v];
    for (std::size_t o = 0; o < spec.size(); ++o) {
      if (!m.eval(spec[o].care().id(), assignment)) continue;  // don't care
      if (fns[net.outputs()[o]][v] != m.eval(spec[o].on().id(), assignment)) return fail(o, v);
    }
  }
  return true;
}

}  // namespace mfd::net
