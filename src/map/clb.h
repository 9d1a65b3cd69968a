// LUT -> CLB packing for the Xilinx XC3000 target of the paper's tables.
//
// An XC3000 CLB realizes either one function of up to 5 inputs or two
// functions of up to 4 inputs each sharing at most 5 distinct inputs.
// Both XC3000 packers read one merge graph, a BitGraph (util/graph.h) over
// the live LUTs with an edge between every mergeable pair, which the pack
// pass builds once. mulop-dc packs greedily (first fit); mulop-dcII
// formulates the pairing as maximum-cardinality matching on that graph and
// solves it with the blossom algorithm, as proposed by Murgai et al. [13] —
// the only difference between the paper's Table 1 and Table 2 flows.
#pragma once

#include "net/lutnet.h"
#include "util/graph.h"

namespace mfd::map {

struct ClbResult {
  int num_luts = 0;      ///< live LUTs packed
  int merged_pairs = 0;  ///< CLBs holding two LUTs
  int num_clbs = 0;      ///< num_luts - merged_pairs
};

/// True iff two LUTs fit one XC3000 CLB together.
bool mergeable(const net::Lut& a, const net::Lut& b);

/// The pairing graph over live LUTs (vertex i = i-th live LUT, in index
/// order): an edge joins every mergeable pair.
BitGraph merge_graph(const net::LutNetwork& net);

/// mulop-dcII packing: maximum-cardinality matching on the merge graph.
ClbResult pack_matching(const BitGraph& merge);

/// mulop-dc packing: greedy first-fit pairing in topological order. Each
/// LUT not yet paired takes the first unpaired neighbour above it in the
/// merge graph.
ClbResult pack_greedy(const BitGraph& merge);

// ---------------------------------------------------------------------------
// XC4000 (extension beyond the paper's XC3000 target)
// ---------------------------------------------------------------------------

struct Xc4000Result {
  int num_luts = 0;      ///< live LUTs packed (each must have <= 4 inputs)
  int h_triples = 0;     ///< CLBs realizing h(f(..), g(..), x) — 3 LUTs each
  int pairs = 0;         ///< CLBs holding two independent LUTs
  int singles = 0;       ///< CLBs holding one LUT
  int num_clbs = 0;
};

/// Packs a 4-feasible LUT network into XC4000 CLBs: two independent 4-input
/// function generators F and G plus a 3-input combiner H(F, G, direct).
/// Greedy H-absorption first (a <=3-input LUT whose single-fanout feeders
/// both fit F/G collapses three LUTs into one CLB), then unconstrained
/// pairing of the rest. Synthesize with lut_inputs = 4 to use this target.
Xc4000Result pack_xc4000(const net::LutNetwork& net);

}  // namespace mfd::map
