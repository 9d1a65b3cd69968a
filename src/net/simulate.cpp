#include "net/simulate.h"

#include <sstream>

#include "tt/tt.h"
#include "util/rng.h"

namespace mfd::net {

std::vector<bdd::Bdd> output_bdds(const LutNetwork& net, bdd::Manager& m,
                                  const std::vector<int>& pi_vars) {
  std::vector<bdd::Bdd> signal(static_cast<std::size_t>(net.num_primary_inputs() + net.num_luts()));
  for (int i = 0; i < net.num_primary_inputs(); ++i)
    signal[static_cast<std::size_t>(i)] = m.var(pi_vars[static_cast<std::size_t>(i)]);

  auto signal_bdd = [&](int s) {
    if (s == kConst0) return m.bdd_false();
    if (s == kConst1) return m.bdd_true();
    return signal[static_cast<std::size_t>(s)];
  };

  for (int i = 0; i < net.num_luts(); ++i) {
    const Lut& lut = net.lut(i);
    signal[static_cast<std::size_t>(net.lut_signal(i))] = tt::to_bdd(
        lut.table, m, [&](int j) { return signal_bdd(lut.inputs[static_cast<std::size_t>(j)]); });
  }

  std::vector<bdd::Bdd> result;
  result.reserve(net.outputs().size());
  for (int s : net.outputs()) result.push_back(signal_bdd(s));
  return result;
}

bool check_exact(const LutNetwork& net, const std::vector<Isf>& spec,
                 const std::vector<int>& pi_vars, std::string* error) {
  if (spec.size() != static_cast<std::size_t>(net.num_outputs())) {
    if (error) *error = "output count mismatch";
    return false;
  }
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
                         const std::vector<int>& pi_vars, int exhaustive_limit,
                         int samples, std::uint64_t seed, std::string* error) {
  if (spec.size() != static_cast<std::size_t>(net.num_outputs())) {
    if (error) *error = "output count mismatch";
    return false;
  }
  bdd::Manager& m = *spec.front().manager();
  const int n = net.num_primary_inputs();
  std::vector<bool> pi(static_cast<std::size_t>(n));
  std::vector<bool> assignment(static_cast<std::size_t>(m.num_vars()), false);

  auto run_vector = [&]() {
    for (int i = 0; i < n; ++i) assignment[static_cast<std::size_t>(pi_vars[static_cast<std::size_t>(i)])] = pi[static_cast<std::size_t>(i)];
    const std::vector<bool> got = net.evaluate(pi);
    for (std::size_t o = 0; o < spec.size(); ++o) {
      if (!m.eval(spec[o].care().id(), assignment)) continue;  // don't care
      if (got[o] != m.eval(spec[o].on().id(), assignment)) {
        if (error) {
          std::ostringstream os;
          os << "output " << o << " wrong under vector";
          for (int i = 0; i < n; ++i) os << (pi[static_cast<std::size_t>(i)] ? '1' : '0');
          *error = os.str();
        }
        return false;
      }
    }
    return true;
  };

  if (n <= exhaustive_limit) {
    for (std::uint64_t v = 0; v < (std::uint64_t{1} << n); ++v) {
      for (int i = 0; i < n; ++i) pi[static_cast<std::size_t>(i)] = (v >> i) & 1;
      if (!run_vector()) return false;
    }
    return true;
  }
  Rng rng(seed);
  for (int s = 0; s < samples; ++s) {
    for (int i = 0; i < n; ++i) pi[static_cast<std::size_t>(i)] = rng.flip();
    if (!run_vector()) return false;
  }
  return true;
}

}  // namespace mfd::net
