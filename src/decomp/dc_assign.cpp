#include "decomp/dc_assign.h"

#include <algorithm>
#include <span>

#include "core/faultinject.h"
#include "obs/obs.h"
#include "util/coloring.h"

namespace mfd {
namespace {

/// Vertices with identical cofactors across all listed outputs are
/// interchangeable; collapsing them first keeps the coloring graphs small
/// (frequently within the exact-coloring limit).
struct Reduced {
  std::vector<int> rep_of_vertex;       // vertex -> dense rep id
  std::vector<int> vertex_of_rep;       // rep id -> one representative vertex
};

Reduced reduce_identical(std::span<const CofactorTable> tables) {
  Reduced r;
  r.rep_of_vertex = partition_by_equality(tables, &r.vertex_of_rep);
  return r;
}

/// Colors the incompatibility structure of the reduced vertices;
/// `incompatible(a, b)` is queried on representative vertices.
template <typename Incompat>
std::vector<int> color_classes(const Reduced& red, Incompat&& incompatible,
                               std::uint64_t seed, int* out_num_classes) {
  const int nr = static_cast<int>(red.vertex_of_rep.size());
  Graph g(nr);
  for (int a = 0; a < nr; ++a)
    for (int b = a + 1; b < nr; ++b)
      if (incompatible(red.vertex_of_rep[static_cast<std::size_t>(a)],
                       red.vertex_of_rep[static_cast<std::size_t>(b)]))
        g.add_edge(a, b);
  ColoringOptions opts;
  opts.seed = seed;
  const Coloring coloring = color_graph(g, opts);
  *out_num_classes = coloring.num_colors;
  std::vector<int> result(red.rep_of_vertex.size());
  for (std::size_t v = 0; v < result.size(); ++v)
    result[v] = coloring.color[static_cast<std::size_t>(red.rep_of_vertex[v])];
  return result;
}

/// Applies a class partition to one table: every vertex receives the merge
/// (information union) of its whole class.
void merge_classes(CofactorTable& table, const std::vector<int>& klass, int k) {
  std::vector<Isf> merged(static_cast<std::size_t>(k));
  for (std::size_t v = 0; v < table.entries.size(); ++v) {
    Isf& slot = merged[static_cast<std::size_t>(klass[v])];
    slot = slot.valid() ? slot.merge(table.entries[v]) : table.entries[v];
  }
  for (std::size_t v = 0; v < table.entries.size(); ++v)
    table.entries[v] = merged[static_cast<std::size_t>(klass[v])];
}

}  // namespace

int num_classes(const std::vector<int>& partition) {
  int k = 0;
  for (int c : partition) k = std::max(k, c + 1);
  return k;
}

int assign_joint(std::vector<CofactorTable>& tables, std::uint64_t seed) {
  if (fault::armed()) fault::point("decomp.dc_assign");
  const Reduced red = reduce_identical(tables);

  auto incompatible = [&](int a, int b) {
    for (const CofactorTable& t : tables)
      if (!t.entries[static_cast<std::size_t>(a)].compatible_with(
              t.entries[static_cast<std::size_t>(b)]))
        return true;
    return false;
  };
  int k = 0;
  const std::vector<int> klass = color_classes(red, incompatible, seed, &k);
  for (CofactorTable& t : tables) merge_classes(t, klass, k);
  // ncc delta of the paper's step 2: distinct joint cofactor vectors before
  // the merge vs joint classes after (the sharing lower bound).
  obs::add("decomp.share.calls");
  obs::add("decomp.share.ncc_before",
           static_cast<std::uint64_t>(red.vertex_of_rep.size()));
  obs::add("decomp.share.ncc_after", static_cast<std::uint64_t>(k));
  return k;
}

std::vector<std::vector<int>> assign_per_output(std::vector<CofactorTable>& tables,
                                                std::uint64_t seed) {
  if (fault::armed()) fault::point("decomp.dc_assign");
  std::vector<std::vector<int>> partitions;
  partitions.reserve(tables.size());
  for (CofactorTable& t : tables) {
    const Reduced red = reduce_identical(std::span<const CofactorTable>(&t, 1));
    auto incompatible = [&](int a, int b) {
      return !t.entries[static_cast<std::size_t>(a)].compatible_with(
          t.entries[static_cast<std::size_t>(b)]);
    };
    int k = 0;
    const std::vector<int> klass = color_classes(red, incompatible, seed, &k);
    merge_classes(t, klass, k);
    // Merging may have made distinct color classes identical; the final
    // partition is the equality partition, which is at least as coarse.
    partitions.push_back(partition_by_equality(t));
    // ncc delta of the paper's step 3, per output: distinct cofactors
    // entering the merge vs classes of the final partition.
    obs::add("decomp.per_output.calls");
    obs::add("decomp.per_output.ncc_before",
             static_cast<std::uint64_t>(red.vertex_of_rep.size()));
    obs::add("decomp.per_output.ncc_after",
             static_cast<std::uint64_t>(num_classes(partitions.back())));
  }
  return partitions;
}

}  // namespace mfd
