#include "decomp/compat.h"

#include <bit>
#include <cassert>
#include <utility>

namespace mfd {

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

void bound_classes(const Isf& f, const std::vector<int>& bound, BoundClasses& out) {
  const CofactorTable table = cofactor_table(f, bound);
  std::vector<int> rep;  // first vertex of each id
  out.of_vertex = partition_by_equality(table, &rep);
  out.ids = static_cast<int>(rep.size());
  out.conflicts.clear();
  if (f.is_completely_specified()) return;
  for (int a = 0; a < out.ids; ++a)
    for (int b = a + 1; b < out.ids; ++b)
      if (!table.entries[static_cast<std::size_t>(rep[a])].compatible_with(
              table.entries[static_cast<std::size_t>(rep[b])]))
        out.conflicts.emplace_back(a, b);
}

int code_length(int k) {
  assert(k >= 1);
  int r = 0;
  while ((1 << r) < k) ++r;
  return r;
}

}  // namespace mfd
