#include "map/clb.h"

#include <algorithm>
#include <cassert>

#include "obs/obs.h"
#include "util/matching.h"

namespace mfd::map {
namespace {

/// A paired XC3000 CLB: each LUT has at most 4 inputs, and the two read at
/// most 5 distinct signals.
constexpr int kPairMaxInputs = 4;
constexpr int kPairTotalInputs = 5;

std::vector<int> live_lut_indices(const net::LutNetwork& net) {
  const auto live = net.live_luts();
  std::vector<int> idx;
  for (int i = 0; i < net.num_luts(); ++i)
    if (live[static_cast<std::size_t>(i)]) idx.push_back(i);
  return idx;
}

}  // namespace

bool mergeable(const net::Lut& a, const net::Lut& b) {
  if (static_cast<int>(a.inputs.size()) > kPairMaxInputs ||
      static_cast<int>(b.inputs.size()) > kPairMaxInputs)
    return false;
  std::vector<int> u = a.inputs;
  for (int in : b.inputs)
    if (std::find(u.begin(), u.end(), in) == u.end()) u.push_back(in);
  return static_cast<int>(u.size()) <= kPairTotalInputs;
}

BitGraph merge_graph(const net::LutNetwork& net) {
  const std::vector<int> idx = live_lut_indices(net);
  BitGraph g(static_cast<int>(idx.size()));
  for (int a = 0; a < g.num_vertices(); ++a)
    for (int b = a + 1; b < g.num_vertices(); ++b)
      if (mergeable(net.lut(idx[static_cast<std::size_t>(a)]),
                    net.lut(idx[static_cast<std::size_t>(b)])))
        g.add_edge(a, b);
  return g;
}

ClbResult pack_matching(const BitGraph& merge) {
  const std::vector<int> mate = maximum_matching(merge);
  ClbResult r;
  r.num_luts = merge.num_vertices();
  r.merged_pairs = matching_size(mate);
  r.num_clbs = r.num_luts - r.merged_pairs;
  obs::add("clb.matching.luts", static_cast<std::uint64_t>(r.num_luts));
  obs::add("clb.matching.mergeable_edges", static_cast<std::uint64_t>(merge.num_edges()));
  obs::add("clb.matching.pairs", static_cast<std::uint64_t>(r.merged_pairs));
  obs::add("clb.matching.clbs", static_cast<std::uint64_t>(r.num_clbs));
  return r;
}

ClbResult pack_greedy(const BitGraph& merge) {
  const int n = merge.num_vertices();
  std::vector<bool> paired(static_cast<std::size_t>(n), false);
  ClbResult r;
  r.num_luts = n;
  for (int a = 0; a < n; ++a) {
    if (paired[static_cast<std::size_t>(a)]) continue;
    for (int b = a + 1; b < n; ++b) {
      if (paired[static_cast<std::size_t>(b)] || !merge.has_edge(a, b)) continue;
      paired[static_cast<std::size_t>(a)] = paired[static_cast<std::size_t>(b)] = true;
      ++r.merged_pairs;
      break;
    }
  }
  r.num_clbs = r.num_luts - r.merged_pairs;
  obs::add("clb.greedy.luts", static_cast<std::uint64_t>(r.num_luts));
  obs::add("clb.greedy.pairs", static_cast<std::uint64_t>(r.merged_pairs));
  obs::add("clb.greedy.clbs", static_cast<std::uint64_t>(r.num_clbs));
  return r;
}

Xc4000Result pack_xc4000(const net::LutNetwork& net) {
  const std::vector<int> idx = live_lut_indices(net);
  Xc4000Result r;
  r.num_luts = static_cast<int>(idx.size());

  // Fanout counts and output-usage over live LUTs.
  std::vector<int> fanout(static_cast<std::size_t>(net.num_luts()), 0);
  for (int i : idx)
    for (int in : net.lut(i).inputs)
      if (!net.is_constant(in) && !net.is_primary_input(in))
        ++fanout[static_cast<std::size_t>(net.lut_index(in))];
  std::vector<bool> is_output(static_cast<std::size_t>(net.num_luts()), false);
  for (int s : net.outputs())
    if (!net.is_constant(s) && !net.is_primary_input(s))
      is_output[static_cast<std::size_t>(net.lut_index(s))] = true;

  std::vector<bool> packed(static_cast<std::size_t>(net.num_luts()), false);

  // H-absorption: combiner with <= 3 inputs, at least two of which are
  // single-fanout internal LUTs with <= 4 inputs (they become F and G; their
  // outputs must not also be primary outputs, because the CLB exposes only
  // the H result in this mode).
  auto absorbable = [&](int feeder) {
    return feeder >= 0 && !packed[static_cast<std::size_t>(feeder)] &&
           fanout[static_cast<std::size_t>(feeder)] == 1 &&
           !is_output[static_cast<std::size_t>(feeder)] &&
           net.lut(feeder).inputs.size() <= 4;
  };
  for (int i : idx) {
    if (packed[static_cast<std::size_t>(i)]) continue;
    const net::Lut& lut = net.lut(i);
    if (lut.inputs.size() > 3) continue;
    std::vector<int> feeders;
    for (int in : lut.inputs) {
      if (net.is_constant(in) || net.is_primary_input(in)) continue;
      const int feeder = net.lut_index(in);
      if (absorbable(feeder) &&
          std::find(feeders.begin(), feeders.end(), feeder) == feeders.end())
        feeders.push_back(feeder);
    }
    if (feeders.size() < 2) continue;
    packed[static_cast<std::size_t>(i)] = true;
    packed[static_cast<std::size_t>(feeders[0])] = true;
    packed[static_cast<std::size_t>(feeders[1])] = true;
    ++r.h_triples;
  }

  // The rest: F/G are independent on the XC4000, so any two remaining LUTs
  // (each <= 4 inputs) share a CLB.
  int remaining = 0;
  for (int i : idx) {
    if (packed[static_cast<std::size_t>(i)]) continue;
    assert(net.lut(i).inputs.size() <= 4 && "XC4000 packing needs a 4-feasible network");
    ++remaining;
  }
  r.pairs = remaining / 2;
  r.singles = remaining % 2;
  r.num_clbs = r.h_triples + r.pairs + r.singles;
  obs::add("clb.xc4000.luts", static_cast<std::uint64_t>(r.num_luts));
  obs::add("clb.xc4000.h_triples", static_cast<std::uint64_t>(r.h_triples));
  obs::add("clb.xc4000.clbs", static_cast<std::uint64_t>(r.num_clbs));
  return r;
}

}  // namespace mfd::map
