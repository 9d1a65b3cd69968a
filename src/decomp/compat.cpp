#include "decomp/compat.h"

#include <bit>
#include <cassert>
#include <map>
#include <utility>

namespace mfd {

int CofactorTable::num_bound_vars() const {
  int p = 0;
  while ((std::size_t{1} << p) < entries.size()) ++p;
  return p;
}

CofactorTable cofactor_table(const Isf& f, const std::vector<int>& bound) {
  const int p = static_cast<int>(bound.size());
  CofactorTable table;
  table.entries.reserve(std::size_t{1} << p);
  bdd::Manager& m = *f.manager();
  std::vector<std::pair<int, bool>> assignment(bound.size());
  for (std::uint32_t v = 0; v < (std::uint32_t{1} << p); ++v) {
    for (int k = 0; k < p; ++k) assignment[static_cast<std::size_t>(k)] = {bound[static_cast<std::size_t>(k)], (v >> k) & 1};
    const bdd::Bdd on = m.wrap(m.cofactor_cube(f.on().id(), assignment));
    const bdd::Bdd care = m.wrap(m.cofactor_cube(f.care().id(), assignment));
    table.entries.emplace_back(on, care);
  }
  return table;
}

bool vertices_compatible(const Isf& a, const Isf& b) { return a.compatible_with(b); }

int ncc_complete(bdd::Manager& m, bdd::Edge f, const std::vector<int>& bound) {
  const int p = static_cast<int>(bound.size());
  // The map keys are unreferenced cofactor results that must stay distinct
  // edges until the loop ends: hold reactive GC off.
  bdd::Manager::AutoGcPause pause(m);
  std::map<bdd::Edge, int> distinct;
  std::vector<std::pair<int, bool>> assignment(bound.size());
  for (std::uint32_t v = 0; v < (std::uint32_t{1} << p); ++v) {
    for (int k = 0; k < p; ++k) assignment[static_cast<std::size_t>(k)] = {bound[static_cast<std::size_t>(k)], (v >> k) & 1};
    distinct.emplace(m.cofactor_cube(f, assignment), 1);
  }
  return static_cast<int>(distinct.size());
}

Graph incompatibility_graph(const CofactorTable& table) {
  const int n = static_cast<int>(table.entries.size());
  Graph g(n);
  for (int a = 0; a < n; ++a)
    for (int b = a + 1; b < n; ++b)
      if (!vertices_compatible(table.entries[static_cast<std::size_t>(a)],
                               table.entries[static_cast<std::size_t>(b)]))
        g.add_edge(a, b);
  return g;
}

Graph joint_incompatibility_graph(const std::vector<CofactorTable>& tables) {
  assert(!tables.empty());
  const int n = static_cast<int>(tables.front().entries.size());
  Graph g(n);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      for (const CofactorTable& t : tables) {
        if (!vertices_compatible(t.entries[static_cast<std::size_t>(a)],
                                 t.entries[static_cast<std::size_t>(b)])) {
          g.add_edge(a, b);
          break;
        }
      }
    }
  }
  return g;
}

std::vector<int> partition_by_equality(std::span<const CofactorTable> tables,
                                       std::vector<int>* first_vertex) {
  const std::size_t n = tables.front().entries.size();
  auto same = [&](std::size_t a, std::size_t b) {
    for (const CofactorTable& t : tables)
      if (t.entries[a].on() != t.entries[b].on() || t.entries[a].care() != t.entries[b].care())
        return false;
    return true;
  };
  // Open addressing over ids, probed by a hash of the vertex's cofactors;
  // each id is compared through its first vertex. The buffers are reused.
  static std::vector<int> slot_id;
  static std::vector<int> first_buffer;
  std::vector<int>& first = first_vertex != nullptr ? *first_vertex : first_buffer;
  first.clear();
  const std::size_t mask = std::bit_ceil(2 * n) - 1;
  slot_id.assign(mask + 1, -1);
  std::vector<int> result(n);
  for (std::size_t v = 0; v < n; ++v) {
    std::uint64_t h = 0;
    for (const CofactorTable& t : tables) {
      h = (h ^ t.entries[v].on().id().bits()) * 0x9e3779b97f4a7c15ULL;
      h = (h ^ t.entries[v].care().id().bits()) * 0xc2b2ae3d27d4eb4fULL;
    }
    std::size_t s = (h ^ (h >> 32)) & mask;
    while (slot_id[s] >= 0 && !same(static_cast<std::size_t>(first[slot_id[s]]), v))
      s = (s + 1) & mask;
    if (slot_id[s] < 0) {
      slot_id[s] = static_cast<int>(first.size());
      first.push_back(static_cast<int>(v));
    }
    result[v] = slot_id[s];
  }
  return result;
}

int code_length(int k) {
  assert(k >= 1);
  int r = 0;
  while ((1 << r) < k) ++r;
  return r;
}

}  // namespace mfd
