#include "decomp/dc_assign.h"

#include <algorithm>
#include <bit>
#include <span>

#include "core/faultinject.h"
#include "obs/obs.h"
#include "util/coloring.h"

namespace mfd {
namespace {

/// Colors `g`, the incompatibility rows over the ids of `of_vertex`, and
/// gives every vertex of each table the merge (information union) of its
/// whole color class. Returns the number of colors.
int merge_color_classes(std::span<CofactorTable> tables, const std::vector<int>& of_vertex,
                        const BitGraph& g, std::uint64_t seed) {
  ColoringOptions opts;
  opts.seed = seed;
  const Coloring coloring = color_graph(g, opts);
  auto color_of = [&](std::size_t v) {
    return static_cast<std::size_t>(coloring.color[static_cast<std::size_t>(of_vertex[v])]);
  };
  for (CofactorTable& table : tables) {
    std::vector<Isf> merged(static_cast<std::size_t>(coloring.num_colors));
    for (std::size_t v = 0; v < table.entries.size(); ++v) {
      Isf& slot = merged[color_of(v)];
      slot = slot.valid() ? slot.merge(table.entries[v]) : table.entries[v];
    }
    for (std::size_t v = 0; v < table.entries.size(); ++v) table.entries[v] = merged[color_of(v)];
  }
  return coloring.num_colors;
}

}  // namespace

int num_classes(const std::vector<int>& partition) {
  int k = 0;
  for (int c : partition) k = std::max(k, c + 1);
  return k;
}

int assign_joint(std::vector<CofactorTable>& tables, const std::vector<BoundClasses>& classes,
                 std::uint64_t seed) {
  if (fault::armed()) fault::point("decomp.dc_assign");
  // The joint classes: the distinct tuples of the outputs' ids.
  thread_local JointClasses joint;
  joint.clear(static_cast<std::size_t>(std::countr_zero(tables.front().entries.size())));
  for (const BoundClasses& c : classes) joint.add(c.of_vertex, c.ids);
  const std::vector<int>& of_vertex = joint.of_vertex();
  const int n = joint.count();
  thread_local std::vector<int> rep;  // first vertex of each joint class
  rep.clear();
  for (std::size_t v = 0; v < of_vertex.size(); ++v)
    if (of_vertex[v] == static_cast<int>(rep.size())) rep.push_back(static_cast<int>(v));

  // Two joint classes conflict when some output's ids of them conflict; a
  // complete output's distinct ids all do.
  thread_local BitGraph g;
  g.reset(n);
  for (int a = 0; a < n; ++a)
    for (int b = a + 1; b < n; ++b)
      if (std::any_of(classes.begin(), classes.end(), [&](const BoundClasses& c) {
            const int ia = c.of_vertex[rep[a]], ib = c.of_vertex[rep[b]];
            return ia != ib && (c.complete() || c.conflicts.has_edge(ia, ib));
          }))
        g.add_edge(a, b);
  const int k = merge_color_classes(tables, of_vertex, g, seed);
  // ncc delta of the paper's step 2: distinct joint cofactor vectors before
  // the merge vs joint classes after (the sharing lower bound).
  obs::add("decomp.share.calls");
  obs::add("decomp.share.ncc_before", static_cast<std::uint64_t>(n));
  obs::add("decomp.share.ncc_after", static_cast<std::uint64_t>(k));
  return k;
}

std::vector<std::vector<int>> assign_per_output(std::vector<CofactorTable>& tables,
                                                std::uint64_t seed) {
  if (fault::armed()) fault::point("decomp.dc_assign");
  std::vector<std::vector<int>> partitions;
  partitions.reserve(tables.size());
  thread_local BoundClasses classes;
  for (CofactorTable& t : tables) {
    bound_classes(t, classes);
    if (classes.complete()) {
      // Compatibility is equality: the ids are the classes.
      partitions.push_back(classes.of_vertex);
    } else {
      merge_color_classes(std::span<CofactorTable>(&t, 1), classes.of_vertex, classes.conflicts,
                          seed);
      // Merging may have made distinct color classes identical; the final
      // partition is the equality partition, which is at least as coarse.
      partitions.push_back(partition_by_equality(t));
    }
    // ncc delta of the paper's step 3, per output: distinct cofactors
    // entering the merge vs classes of the final partition.
    obs::add("decomp.per_output.calls");
    obs::add("decomp.per_output.ncc_before", static_cast<std::uint64_t>(classes.ids));
    obs::add("decomp.per_output.ncc_after",
             static_cast<std::uint64_t>(num_classes(partitions.back())));
  }
  return partitions;
}

}  // namespace mfd
