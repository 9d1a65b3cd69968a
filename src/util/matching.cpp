#include "util/matching.h"

#include <algorithm>
#include <bit>
#include <queue>

namespace mfd {
namespace {

/// Edmonds' blossom algorithm, standard formulation: BFS from each free
/// vertex, contracting blossoms via the base[] array, augmenting when an
/// exposed even vertex is reached.
class Blossom {
 public:
  explicit Blossom(const BitGraph& g)
      : g_(g), n_(g.num_vertices()), mate_(n_, -1), parent_(n_), base_(n_) {}

  std::vector<int> run() {
    for (int v = 0; v < n_; ++v)
      if (mate_[v] == -1) find_augmenting_path(v);
    return mate_;
  }

 private:
  int lowest_common_ancestor(int a, int b) {
    std::vector<bool> used(n_, false);
    // Walk up from a marking bases, then walk up from b until a mark is hit.
    for (int v = a;;) {
      v = base_[v];
      used[v] = true;
      if (mate_[v] == -1) break;
      v = parent_[mate_[v]];
    }
    for (int v = b;;) {
      v = base_[v];
      if (used[v]) return v;
      v = parent_[mate_[v]];
    }
  }

  void mark_path(int v, int b, int child, std::vector<bool>& blossom) {
    while (base_[v] != b) {
      blossom[base_[v]] = true;
      blossom[base_[mate_[v]]] = true;
      parent_[v] = child;
      child = mate_[v];
      v = parent_[mate_[v]];
    }
  }

  void contract(int u, int v, std::queue<int>& q, std::vector<bool>& in_queue) {
    const int b = lowest_common_ancestor(u, v);
    std::vector<bool> blossom(n_, false);
    mark_path(u, b, v, blossom);
    mark_path(v, b, u, blossom);
    for (int i = 0; i < n_; ++i) {
      if (!blossom[base_[i]]) continue;
      base_[i] = b;
      if (!in_queue[i]) {
        in_queue[i] = true;
        q.push(i);
      }
    }
  }

  void find_augmenting_path(int root) {
    std::fill(parent_.begin(), parent_.end(), -1);
    for (int v = 0; v < n_; ++v) base_[v] = v;
    std::vector<bool> in_queue(n_, false);
    std::queue<int> q;
    q.push(root);
    in_queue[root] = true;

    while (!q.empty()) {
      const int u = q.front();
      q.pop();
      const std::uint64_t* row = g_.row(u);
      for (std::size_t word = 0; word < g_.words(); ++word)
        for (std::uint64_t bits = row[word]; bits != 0; bits &= bits - 1) {
          const int w = static_cast<int>(word * 64) + std::countr_zero(bits);
          if (base_[u] == base_[w] || mate_[u] == w) continue;
          if (w == root || (mate_[w] != -1 && parent_[mate_[w]] != -1)) {
            // w is an even vertex in the forest: odd cycle -> blossom.
            contract(u, w, q, in_queue);
          } else if (parent_[w] == -1) {
            parent_[w] = u;
            if (mate_[w] == -1) {
              augment(w);
              return;
            }
            if (!in_queue[mate_[w]]) {
              in_queue[mate_[w]] = true;
              q.push(mate_[w]);
            }
          }
        }
    }
  }

  void augment(int v) {
    while (v != -1) {
      const int pv = parent_[v];
      const int ppv = mate_[pv];
      mate_[v] = pv;
      mate_[pv] = v;
      v = ppv;
    }
  }

  const BitGraph& g_;
  int n_;
  std::vector<int> mate_;
  std::vector<int> parent_;
  std::vector<int> base_;
};

}  // namespace

std::vector<int> maximum_matching(const BitGraph& g) {
  return Blossom(g).run();
}

int matching_size(const std::vector<int>& mate) {
  int matched = 0;
  for (int v = 0; v < static_cast<int>(mate.size()); ++v)
    if (mate[v] > v) ++matched;
  return matched;
}

bool matching_is_valid(const BitGraph& g, const std::vector<int>& mate) {
  const int n = g.num_vertices();
  if (static_cast<int>(mate.size()) != n) return false;
  for (int v = 0; v < n; ++v) {
    const int m = mate[v];
    if (m == -1) continue;
    if (m < 0 || m >= n || mate[m] != v || !g.has_edge(v, m)) return false;
  }
  return true;
}

}  // namespace mfd
