#include "verify/oracle.h"

#include <exception>

#include "io/blif.h"
#include "io/pla.h"
#include "net/simulate.h"
#include "util/rng.h"

namespace mfd::verify {
namespace {

/// PLA round-trip checks, independent of the flow: the exact fr writer must
/// reproduce (on, care) verbatim; the lossy fd writer spends DCs but must
/// stay admissible and completely specified.
bool check_pla_round_trip(const TableSpec& spec, std::string* failure) {
  bdd::Manager m;
  const std::vector<Isf> fns = to_isfs(spec, m);

  {
    const io::PlaFile pla = io::pla_from_isfs_exact(fns, spec.num_inputs);
    const std::string text = io::write_pla(pla);
    const io::PlaFile back = io::parse_pla(text, "<round-trip>");
    const std::vector<Isf> fns2 = io::pla_to_isfs(back, m);
    if (fns2.size() != fns.size()) {
      *failure = "pla exact round-trip changed the output count";
      return false;
    }
    for (std::size_t o = 0; o < fns.size(); ++o)
      if (fns2[o] != fns[o]) {
        *failure = "pla exact round-trip altered (on, care) of output " +
                   std::to_string(o);
        return false;
      }
  }
  {
    const io::PlaFile pla = io::pla_from_isfs(fns, spec.num_inputs);
    const std::string text = io::write_pla(pla);
    const io::PlaFile back = io::parse_pla(text, "<round-trip>");
    const std::vector<Isf> fns2 = io::pla_to_isfs(back, m);
    for (std::size_t o = 0; o < fns.size(); ++o) {
      if (!fns2[o].is_completely_specified()) {
        *failure = "pla fd round-trip left output " + std::to_string(o) +
                   " incompletely specified";
        return false;
      }
      if (!fns[o].admits(fns2[o].on())) {
        *failure = "pla fd round-trip picked an inadmissible extension for output " +
                   std::to_string(o);
        return false;
      }
    }
  }
  return true;
}

/// The network simulated on every minterm agrees with the spec's own tables
/// wherever they care (no BDD on either side). check_exact matched the counts.
bool check_tables(const net::LutNetwork& network, const TableSpec& spec,
                  std::string* failure) {
  std::vector<tt::TruthTable> pis;
  for (int i = 0; i < spec.num_inputs; ++i)
    pis.push_back(tt::TruthTable::var(spec.num_inputs, i));
  const std::vector<tt::TruthTable> outs = net::simulate(network, std::move(pis)).outputs(network);
  for (std::size_t o = 0; o < outs.size(); ++o) {
    const tt::TruthTable wrong = (outs[o] ^ spec.outputs[o].on) & spec.outputs[o].care;
    if (wrong.is_constant(false)) continue;
    std::uint64_t mt = 0;
    while (!wrong[mt]) ++mt;
    *failure = "care-set violation (simulation): output " + std::to_string(o) +
               " disagrees with the spec at minterm " + std::to_string(mt);
    return false;
  }
  return true;
}

/// BLIF export → re-parse → BDD equivalence against the network itself.
bool check_blif_round_trip(const net::LutNetwork& network, bdd::Manager& m,
                           const std::vector<int>& pi_vars, std::string* failure) {
  const std::string text = io::write_blif(network, "fuzz");
  io::BlifModel model;
  try {
    model = io::parse_blif(text, m, "<round-trip>");
  } catch (const std::exception& e) {
    *failure = std::string("blif round-trip: emitted text failed to re-parse: ") +
               e.what();
    return false;
  }
  const std::vector<bdd::Bdd> direct = net::output_bdds(network, m, pi_vars);
  if (model.functions.size() != direct.size()) {
    *failure = "blif round-trip changed the output count";
    return false;
  }
  for (std::size_t o = 0; o < direct.size(); ++o)
    if (model.functions[o] != direct[o]) {
      *failure = "blif round-trip altered the function of output " + std::to_string(o);
      return false;
    }
  return true;
}

}  // namespace

std::vector<OptionPoint> derive_option_points(std::uint64_t seed) {
  Rng rng(seed ^ 0x0A0C1Eull);
  std::vector<OptionPoint> points;

  // The base configuration: full DC exploitation at a randomized LUT size
  // and bound-set seed, run twice: what the first run leaves behind must
  // not change the second run's network.
  SynthesisOptions base = preset_mulop_dc(rng.range(3, 5));
  base.verify = false;
  base.portfolio_bound_extra = rng.flip();
  base.decomp.seed = rng.below(1 << 20) + 1;

  points.push_back({"base", base, "base"});
  points.push_back({"base/again", base, "base"});

  // A variant configuration exercising a different preset / pass set: checked
  // for correctness only (its network may legitimately differ from base).
  SynthesisOptions variant;
  switch (rng.below(3)) {
    case 0: variant = preset_mulop_dc(rng.range(3, 5)); break;
    case 1: variant = preset_mulopII(rng.range(3, 5)); break;
    default: variant = preset_noshare_nodc(rng.range(3, 5)); break;
  }
  variant.verify = false;
  variant.decomp.seed = rng.below(1 << 20) + 1;
  if (rng.chance(1, 2)) variant.passes = "decompose,simplify,pack";
  points.push_back({"variant", variant, ""});

  // Occasionally a budgeted point: the degradation ladder must still land on
  // an admissible network. Budgets make results timing-class dependent, so
  // it never joins a determinism group.
  if (rng.chance(1, 4)) {
    SynthesisOptions tight = base;
    tight.budget.node_ceiling = 2000;
    points.push_back({"base/node-budget", tight, ""});
  }
  return points;
}

OracleResult run_oracle(const TableSpec& spec, std::uint64_t seed) {
  OracleResult result;
  const std::vector<OptionPoint> points = derive_option_points(seed);

  ++result.checks_run;
  if (std::string failure; !check_pla_round_trip(spec, &failure)) {
    result.ok = false;
    result.failure = failure;
    result.failing_point = "pla-round-trip";
    return result;
  }

  struct GroupRun {
    std::string point;
    net::LutNetwork network;
  };
  std::vector<std::pair<std::string, GroupRun>> group_runs;

  for (const OptionPoint& point : points) {
    bdd::Manager m;  // fresh per point: no variable-order leakage
    const std::vector<Isf> fns = to_isfs(spec, m);
    std::vector<int> pi_vars(static_cast<std::size_t>(spec.num_inputs));
    for (int v = 0; v < spec.num_inputs; ++v) pi_vars[static_cast<std::size_t>(v)] = v;

    SynthesisResult synth;
    try {
      synth = Synthesizer(point.opts).run(fns, pi_vars, "fuzz/" + point.label);
    } catch (const std::exception& e) {
      result.ok = false;
      result.failure = std::string("flow raised: ") + e.what();
      result.failing_point = point.label;
      break;
    }
    ++result.points_run;

    std::string error;
    ++result.checks_run;
    if (!net::check_exact(synth.network, fns, pi_vars, &error)) {
      result.ok = false;
      result.failure = "care-set violation (exact): " + error;
      result.failing_point = point.label;
      break;
    }
    ++result.checks_run;
    if (!check_tables(synth.network, spec, &error)) {
      result.ok = false;
      result.failure = error;
      result.failing_point = point.label;
      break;
    }
    ++result.checks_run;
    if (!check_blif_round_trip(synth.network, m, pi_vars, &error)) {
      result.ok = false;
      result.failure = error;
      result.failing_point = point.label;
      break;
    }
    if (!point.group.empty())
      group_runs.emplace_back(point.group, GroupRun{point.label, std::move(synth.network)});
  }

  // Determinism cross-check: every pair within a group must match exactly.
  if (result.ok) {
    for (std::size_t i = 0; i < group_runs.size(); ++i)
      for (std::size_t j = i + 1; j < group_runs.size(); ++j) {
        if (group_runs[i].first != group_runs[j].first) continue;
        ++result.checks_run;
        if (group_runs[i].second.network != group_runs[j].second.network) {
          result.ok = false;
          result.failure = "determinism violation: networks of '" +
                           group_runs[i].second.point + "' and '" +
                           group_runs[j].second.point + "' differ";
          result.failing_point = group_runs[j].second.point;
          break;
        }
      }
  }

  return result;
}

}  // namespace mfd::verify
