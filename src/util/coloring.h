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
// An incompatibility graph is a BitGraph: one adjacency row of ceil(n/64)
// words per vertex. Its vertices are classes of bound vertices, at most 2^p,
// so with k = 5 and one extra bound variable a row is one word; the class
// queries of the bound-set search (sym/symmetry.h) and the reference
// bound_classes (decomp/compat.h) write their conflicts as rows directly, and
// dc_assign.cpp builds its graphs the same way.
//
// Strategy: DSATUR with seeded restarts, keeping the first coloring with the
// fewest colors. There is one DSATUR; it keeps its buffers per thread, so a
// run allocates nothing once they have grown.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace mfd {

/// Undirected simple graph over vertices 0..n-1 as adjacency rows: bit u of
/// row v is set iff {u, v} is an edge.
class BitGraph {
 public:
  BitGraph() = default;
  explicit BitGraph(int n) { reset(n); }

  /// n vertices and no edge; the storage is kept.
  void reset(int n) {
    n_ = n;
    words_ = (static_cast<std::size_t>(n) + 63) / 64;
    bits_.assign(static_cast<std::size_t>(n) * words_, 0);
  }

  int num_vertices() const { return n_; }
  /// Words per row.
  std::size_t words() const { return words_; }
  const std::uint64_t* row(int v) const { return &bits_[static_cast<std::size_t>(v) * words_]; }

  /// Adds the undirected edge {u, v}, u != v; a duplicate changes nothing.
  void add_edge(int u, int v) {
    bits_[static_cast<std::size_t>(u) * words_ + static_cast<std::size_t>(v >> 6)] |=
        std::uint64_t{1} << (v & 63);
    bits_[static_cast<std::size_t>(v) * words_ + static_cast<std::size_t>(u >> 6)] |=
        std::uint64_t{1} << (u & 63);
  }
  bool has_edge(int u, int v) const { return (row(u)[v >> 6] >> (v & 63)) & 1; }
  int degree(int v) const {
    int d = 0;
    for (std::size_t w = 0; w < words_; ++w) d += std::popcount(row(v)[w]);
    return d;
  }
  int num_edges() const;

  friend bool operator==(const BitGraph&, const BitGraph&) = default;

 private:
  int n_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;
};

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
