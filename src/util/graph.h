// The library's one graph type: an undirected graph as adjacency rows of
// ceil(n/64) words per vertex. It holds the incompatibility graphs of the
// decomposition core, which DSATUR colors (util/coloring.h), and the LUT-merge
// graph of the CLB mapper, which the blossom matches (util/matching.h) and
// first-fit packing scans (map/clb.h). Both read a vertex's neighbours as the
// set bits of its row, in ascending order.
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
  int num_edges() const {
    int twice = 0;
    for (const std::uint64_t bits : bits_) twice += std::popcount(bits);
    return twice / 2;
  }

  friend bool operator==(const BitGraph&, const BitGraph&) = default;

 private:
  int n_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;
};

}  // namespace mfd
