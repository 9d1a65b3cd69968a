// Undirected graph with adjacency lists, for the LUT-merge graph of the CLB
// mapper and its maximum matching (util/matching.h). The incompatibility
// graphs of the decomposition core are BitGraphs (util/coloring.h).
#pragma once

#include <cstdint>
#include <vector>

namespace mfd {

/// Undirected simple graph over vertices 0..n-1 with O(1) adjacency queries.
///
/// Sized for the library's merge graphs: at most a few thousand LUTs.
class Graph {
 public:
  Graph() = default;
  explicit Graph(int n);

  int num_vertices() const { return n_; }
  int num_edges() const { return m_; }

  /// Adds the undirected edge {u, v}; ignores self-loops and duplicates.
  void add_edge(int u, int v);

  bool has_edge(int u, int v) const { return adj_matrix_[idx(u, v)]; }

  const std::vector<int>& neighbors(int v) const { return adj_[v]; }

 private:
  std::size_t idx(int u, int v) const {
    return static_cast<std::size_t>(u) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(v);
  }

  int n_ = 0;
  int m_ = 0;
  std::vector<bool> adj_matrix_;
  std::vector<std::vector<int>> adj_;
};

}  // namespace mfd
