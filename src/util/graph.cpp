#include "util/graph.h"

namespace mfd {

Graph::Graph(int n)
    : n_(n),
      adj_matrix_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), false),
      adj_(static_cast<std::size_t>(n)) {}

void Graph::add_edge(int u, int v) {
  if (u == v || adj_matrix_[idx(u, v)]) return;
  adj_matrix_[idx(u, v)] = true;
  adj_matrix_[idx(v, u)] = true;
  adj_[u].push_back(v);
  adj_[v].push_back(u);
  ++m_;
}

}  // namespace mfd
