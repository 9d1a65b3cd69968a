// Every signal of a LUT network as a function of its primary inputs, and the
// two checks of a network against a BDD/ISF specification built on that.
//
// One walk computes the signals: given each primary input's function, a
// rule that builds a LUT's function from its table and its fanins'
// functions, and the signals its caller reads afterwards, walk() builds in
// index order, which is topological by construction, the LUTs those signals
// depend on, and drops each other LUT's function after its last reader. It
// runs over two function types:
//  * BDDs in a manager, with tt::to_bdd as the rule: output_bdds, and so
//    check_exact and the flow's own verification. It reads the outputs, so
//    it skips dead LUTs and holds only the frontier of live signals, not
//    all of them;
//  * truth tables over the variables of the primary inputs' tables, with
//    tt::compose as the rule: simulate, which reads every signal. Projection
//    tables give an exhaustive run over every minterm, seeded random tables
//    a sampled one, 64 vectors a word.
// odc_resubst's sweeps refresh every signal through it, on either type.
//
// The checks:
//  * exact: rebuild every network output as a BDD and check that it is an
//    admissible extension of the specification ISF;
//  * simulation: simulate the network, exhaustively for at most
//    tt::kMaxVars primary inputs, against the specification's on and care
//    tables read once with tt::from_bdd and compared word by word, and on
//    seeded random vectors above, reading the specification per vector with
//    Manager::eval. It shares no code with the to_bdd path, so it also
//    validates the BDD rebuild.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "isf/isf.h"
#include "net/lutnet.h"
#include "tt/tt.h"

namespace mfd::net {

/// Every signal's function of a network, as walk() returns it.
template <typename Fn>
struct SignalFunctions {
  Fn zero, one;             ///< the constants kConst0 and kConst1
  /// By signal id: the primary inputs, then the LUTs; Fn() for a LUT the
  /// walk dropped or did not build (see walk's `reads`).
  std::vector<Fn> signals;

  const Fn& operator[](int signal) const {
    if (signal == kConst0) return zero;
    if (signal == kConst1) return one;
    return signals[static_cast<std::size_t>(signal)];
  }
  /// The functions of net's primary outputs, in order.
  std::vector<Fn> outputs(const LutNetwork& net) const {
    std::vector<Fn> result;
    result.reserve(net.outputs().size());
    for (int s : net.outputs()) result.push_back((*this)[s]);
    return result;
  }
};

/// Every signal id of net, primary inputs first: the `reads` of a walk
/// whose caller reads them all.
std::vector<int> every_signal(const LutNetwork& net);

/// The walk: primary input i is inputs[i], and each LUT that a signal of
/// `reads` depends on is, in index order, build(lut.table, fanin), where
/// fanin(j) returns the const Fn& of lut.inputs[j] (a constant fanin reads
/// `zero` or `one`). `reads` lists the signals the caller reads once the
/// walk returns; their functions stay. Any other LUT's function is reset to
/// Fn() as soon as its last reader is built, and a LUT that no signal of
/// `reads` depends on is never built, so the walk holds only the frontier
/// between built LUTs and their pending readers, not every signal.
template <typename Fn, typename Build>
SignalFunctions<Fn> walk(const LutNetwork& net, Fn zero, Fn one, std::vector<Fn> inputs,
                         const std::vector<int>& reads, Build&& build) {
  const int num_luts = net.num_luts();
  // last[i]: the LUT whose build is the last to read LUT i; num_luts for a
  // LUT in reads (kept), -1 for a LUT nothing needs (never built). Readers
  // come after what they read, so one backward pass settles it.
  std::vector<int> last(static_cast<std::size_t>(num_luts), -1);
  // The last[] slot of a LUT signal, or nullptr for a constant or an input.
  const auto last_of = [&](int signal) -> int* {
    if (net.is_constant(signal) || net.is_primary_input(signal)) return nullptr;
    return &last[static_cast<std::size_t>(net.lut_index(signal))];
  };
  for (int s : reads)
    if (int* l = last_of(s)) *l = num_luts;
  for (int i = num_luts - 1; i >= 0; --i) {
    if (last[static_cast<std::size_t>(i)] < 0) continue;
    for (int in : net.lut(i).inputs)
      if (int* l = last_of(in)) *l = std::max(*l, i);
  }

  SignalFunctions<Fn> fns{std::move(zero), std::move(one), std::move(inputs)};
  // Reserved up front, so a fanin reference stays valid while the next LUT
  // is appended.
  fns.signals.reserve(fns.signals.size() + static_cast<std::size_t>(num_luts));
  for (int i = 0; i < num_luts; ++i) {
    if (last[static_cast<std::size_t>(i)] < 0) {
      fns.signals.emplace_back();
      continue;
    }
    const Lut& lut = net.lut(i);
    fns.signals.push_back(build(lut.table, [&](int j) -> const Fn& {
      return fns[lut.inputs[static_cast<std::size_t>(j)]];
    }));
    for (int in : lut.inputs)
      if (const int* l = last_of(in); l != nullptr && *l == i)
        fns.signals[static_cast<std::size_t>(in)] = Fn();
  }
  return fns;
}

/// simulate's rule: a LUT's table over the num_vars variables of its
/// fanins' tables, compose(table, fanin(0), ..., fanin(k-1)).
template <typename Fanin>
tt::TruthTable compose_lut(const tt::TruthTable& table, int num_vars, Fanin&& fanin) {
  std::vector<tt::TruthTable> args;
  args.reserve(static_cast<std::size_t>(table.num_vars()));
  for (int j = 0; j < table.num_vars(); ++j) args.push_back(fanin(j));
  return tt::compose(table, args, num_vars);
}

/// Every signal's table, where primary input i is pi_tables[i]; all of them
/// range over the same variables (at most tt::kMaxVars), and bit v of each
/// table is the signal's value under vector v. With the projections
/// TruthTable::var(n, i) vector v is minterm v of the n inputs.
SignalFunctions<tt::TruthTable> simulate(const LutNetwork& net,
                                         std::vector<tt::TruthTable> pi_tables);

/// BDD of every primary output of `net`. `pi_vars[i]` is the manager
/// variable standing for primary input i.
std::vector<bdd::Bdd> output_bdds(const LutNetwork& net, bdd::Manager& m,
                                  const std::vector<int>& pi_vars);

/// Exact check: every network output is an admissible extension of the
/// corresponding specification ISF (true for a network and spec with no
/// outputs). On failure, `error` (if given) receives a description
/// including a counterexample.
bool check_exact(const LutNetwork& net, const std::vector<Isf>& spec,
                 const std::vector<int>& pi_vars, std::string* error = nullptr);

/// Simulation check of the same property: exhaustive, and so exact, for a
/// network of at most tt::kMaxVars primary inputs; above that on 2048
/// random vectors drawn from `seed`. A specification variable outside
/// `pi_vars` reads as 0. On failure, `error` (if given) names the first
/// failing vector (the first output on a tie) and that output.
bool check_by_simulation(const LutNetwork& net, const std::vector<Isf>& spec,
                         const std::vector<int>& pi_vars, std::uint64_t seed = 7,
                         std::string* error = nullptr);

}  // namespace mfd::net
