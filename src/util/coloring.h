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
// An incompatibility graph is a BitGraph (util/graph.h). Its vertices are
// classes of bound vertices, at most 2^p, so with k = 5 and one extra bound
// variable a row is one word. The class queries of the bound-set search
// (sym/symmetry.h) and compat's class analysis (bound_classes,
// decomp/compat.h) write their conflicts as rows directly; DC step 3 colors
// those rows, and step 2 joins them into rows over the joint classes.
//
// Strategy: DSATUR with seeded restarts, keeping the first coloring with the
// fewest colors. There is one DSATUR; it keeps its buffers per thread, so a
// run allocates nothing once they have grown.
#pragma once

#include <cstdint>
#include <vector>

#include "util/graph.h"

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
Coloring color_graph(const BitGraph& g, const ColoringOptions& opts = {});

/// color_graph(g, opts).num_colors, with the same runs and counters, without
/// writing a coloring.
int color_count(const BitGraph& g, const ColoringOptions& opts = {});

/// True iff `c` is a proper coloring of `g`.
bool coloring_is_proper(const BitGraph& g, const Coloring& c);

}  // namespace mfd
