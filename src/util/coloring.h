// Graph coloring == minimum clique cover of the complement graph.
//
// The decomposition core needs minimum clique covers of *compatibility*
// graphs over bound-set vertices (Chang & Marek-Sadowska step, and the
// sharing-driven joint don't-care assignment). Compatibility of incompletely
// specified cofactors is reflexive and symmetric but not transitive, so the
// class structure is a clique cover, not a partition refinement. We compute
// it as a proper coloring of the *incompatibility* graph: vertices with the
// same color are pairwise compatible.
//
// Strategy: DSATUR with seeded restarts, keeping the first coloring with the
// fewest colors.
#pragma once

#include <vector>

#include "util/graph.h"
#include "util/rng.h"

namespace mfd {

struct ColoringOptions {
  /// Number of DSATUR runs, each with its own random tie-break order.
  int restarts = 8;
  /// Seed for tie-breaking.
  std::uint64_t seed = 1;
};

struct Coloring {
  std::vector<int> color;  ///< color[v] in [0, num_colors)
  int num_colors = 0;
};

/// Properly colors `g` (adjacent vertices receive distinct colors) with a
/// heuristically minimal number of colors.
Coloring color_graph(const Graph& g, const ColoringOptions& opts = {});

/// True iff `c` is a proper coloring of `g`.
bool coloring_is_proper(const Graph& g, const Coloring& c);

}  // namespace mfd
