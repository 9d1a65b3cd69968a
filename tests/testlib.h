// Shared helpers for the test suite: a truth-table oracle for BDD
// verification and small combinatorial brute-force references.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "bdd/bdd.h"
#include "util/coloring.h"
#include "util/graph.h"
#include "util/rng.h"

namespace mfd::test {

/// Truth table over n variables; entry index bit v is the value of x_v.
using Table = std::vector<bool>;

inline Table random_table(Rng& rng, int n) {
  Table t(std::size_t{1} << n);
  for (auto&& bit : t) bit = rng.flip();
  return t;
}

/// Builds the BDD of a truth table as a disjunction of minterms.
inline bdd::Bdd bdd_from_table(bdd::Manager& m, const Table& t, int n) {
  bdd::Bdd f = m.bdd_false();
  for (std::size_t idx = 0; idx < t.size(); ++idx) {
    if (!t[idx]) continue;
    bdd::Bdd minterm = m.bdd_true();
    for (int v = 0; v < n; ++v) minterm &= m.literal(v, (idx >> v) & 1);
    f |= minterm;
  }
  return f;
}

/// Reads back a BDD as a truth table over variables 0..n-1.
inline Table table_from_bdd(const bdd::Manager& m, bdd::Edge f, int n) {
  Table t(std::size_t{1} << n);
  std::vector<bool> assignment(static_cast<std::size_t>(m.num_vars()), false);
  for (std::size_t idx = 0; idx < t.size(); ++idx) {
    for (int v = 0; v < n; ++v) assignment[v] = (idx >> v) & 1;
    t[idx] = m.eval(f, assignment);
  }
  return t;
}

/// Exhaustive maximum matching (reference for the blossom implementation).
/// Only usable for small graphs.
inline int brute_force_max_matching(const BitGraph& g) {
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < g.num_vertices(); ++u)
    for (std::size_t w = 0; w < g.words(); ++w)
      for (std::uint64_t bits = g.row(u)[w]; bits != 0; bits &= bits - 1) {
        const int v = static_cast<int>(w * 64) + std::countr_zero(bits);
        if (v > u) edges.emplace_back(u, v);
      }
  std::vector<bool> used(static_cast<std::size_t>(g.num_vertices()), false);
  auto rec = [&](auto&& self, std::size_t i) -> int {
    if (i == edges.size()) return 0;
    int best = self(self, i + 1);
    const auto [u, v] = edges[i];
    if (!used[u] && !used[v]) {
      used[u] = used[v] = true;
      best = std::max(best, 1 + self(self, i + 1));
      used[u] = used[v] = false;
    }
    return best;
  };
  return rec(rec, 0);
}

/// Exhaustive chromatic number (reference for the coloring heuristic).
inline int brute_force_chromatic_number(const BitGraph& g) {
  const int n = g.num_vertices();
  if (n == 0) return 0;
  for (int k = 1; k <= n; ++k) {
    std::vector<int> color(static_cast<std::size_t>(n), -1);
    auto rec = [&](auto&& self, int v) -> bool {
      if (v == n) return true;
      for (int c = 0; c < k; ++c) {
        bool ok = true;
        for (int u = 0; u < v; ++u)
          if (g.has_edge(u, v) && color[u] == c) ok = false;
        if (!ok) continue;
        color[v] = c;
        if (self(self, v + 1)) return true;
        color[v] = -1;
      }
      return false;
    };
    if (rec(rec, 0)) return k;
  }
  return n;
}

}  // namespace mfd::test
