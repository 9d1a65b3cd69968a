#include "decomp/encoding.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "decomp/compat.h"
#include "decomp/dc_assign.h"
#include "obs/obs.h"

namespace mfd {
namespace {

/// Value of a candidate function on each class of a partition, or empty if
/// the function is not constant on some class (not strict).
std::vector<int> class_values(const tt::TruthTable& fn,
                              const std::vector<int>& partition, int k) {
  std::vector<int> value(static_cast<std::size_t>(k), -1);
  for (std::size_t v = 0; v < partition.size(); ++v) {
    const int c = partition[v];
    const int bit = fn[v] ? 1 : 0;
    if (value[static_cast<std::size_t>(c)] == -1) {
      value[static_cast<std::size_t>(c)] = bit;
    } else if (value[static_cast<std::size_t>(c)] != bit) {
      return {};  // not strict
    }
  }
  return value;
}

}  // namespace

std::uint32_t Encoding::code_of(int output, int vertex) const {
  std::uint32_t code = 0;
  const auto& idx = used[static_cast<std::size_t>(output)];
  for (std::size_t j = 0; j < idx.size(); ++j)
    if (functions[static_cast<std::size_t>(idx[j])][static_cast<std::size_t>(vertex)])
      code |= std::uint32_t{1} << j;
  return code;
}

Encoding encode_shared(const std::vector<std::vector<int>>& partitions, int p,
                       bool share) {
  const std::size_t num_vertices = std::size_t{1} << p;
  const int m = static_cast<int>(partitions.size());
  Encoding enc;
  enc.used.resize(static_cast<std::size_t>(m));

  // Outputs by decreasing class count: the hardest to encode goes first and
  // seeds the pool with the most reusable functions.
  std::vector<int> order(static_cast<std::size_t>(m));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const int ka = num_classes(partitions[static_cast<std::size_t>(a)]);
    const int kb = num_classes(partitions[static_cast<std::size_t>(b)]);
    if (ka != kb) return ka > kb;
    return a < b;  // explicit tie-break: unstable sort must not pick the order
  });

  for (const int out : order) {
    const std::vector<int>& part = partitions[static_cast<std::size_t>(out)];
    assert(part.size() == num_vertices && part[0] == 0);
    const int k = num_classes(part);
    const int r = code_length(k);

    // cell[c] = current code cell of class c; classes in the same cell are
    // not yet separated.
    std::vector<int> cell(static_cast<std::size_t>(k), 0);
    int num_cells = 1;
    auto cell_sizes = [&]() {
      std::vector<int> size(static_cast<std::size_t>(num_cells), 0);
      for (int c : cell) ++size[static_cast<std::size_t>(c)];
      return size;
    };
    auto apply_split = [&](const std::vector<int>& cls_value) {
      // New cell id = old * 2 + bit, re-densified.
      std::vector<int> remap(static_cast<std::size_t>(num_cells) * 2, -1);
      int next = 0;
      for (std::size_t c = 0; c < cell.size(); ++c) {
        const std::size_t key = static_cast<std::size_t>(cell[c]) * 2 +
                                static_cast<std::size_t>(cls_value[c]);
        if (remap[key] == -1) remap[key] = next++;
        cell[c] = remap[key];
      }
      num_cells = next;
    };

    std::vector<int>& selected = enc.used[static_cast<std::size_t>(out)];
    while (static_cast<int>(selected.size()) < r) {
      const int remaining = r - static_cast<int>(selected.size());
      int best_fn = -1;
      long best_gain = 0;
      std::vector<int> best_values;
      if (share) {
        for (int fi = 0; fi < enc.total_functions(); ++fi) {
          if (std::find(selected.begin(), selected.end(), fi) != selected.end())
            continue;
          const std::vector<int> values =
              class_values(enc.functions[static_cast<std::size_t>(fi)], part, k);
          if (values.empty()) continue;  // not strict for this output
          // Tentative split: check the encodability invariant and the gain.
          std::vector<int> zeros(static_cast<std::size_t>(num_cells), 0);
          std::vector<int> ones(static_cast<std::size_t>(num_cells), 0);
          for (std::size_t c = 0; c < cell.size(); ++c)
            ++(values[c] ? ones : zeros)[static_cast<std::size_t>(cell[c])];
          bool safe = true;
          long gain = 0;
          for (int ci = 0; ci < num_cells; ++ci) {
            const int z = zeros[static_cast<std::size_t>(ci)];
            const int o = ones[static_cast<std::size_t>(ci)];
            if (std::max(z, o) > (1 << (remaining - 1))) safe = false;
            gain += std::min(z, o);
          }
          if (!safe || gain == 0) continue;
          if (gain > best_gain) {
            best_gain = gain;
            best_fn = fi;
            best_values = values;
          }
        }
      }

      std::vector<int> values;
      if (best_fn != -1) {
        values = std::move(best_values);
        selected.push_back(best_fn);
        ++enc.pool_hits;
        obs::add("encoding.pool_hits");
      } else {
        // Fresh balanced splitter: in every cell, the first half of the
        // classes gets 0, the rest 1. ceil(s/2) <= 2^(remaining-1) holds by
        // the invariant, so the split is always safe.
        values.assign(static_cast<std::size_t>(k), 0);
        std::vector<int> seen(static_cast<std::size_t>(num_cells), 0);
        const std::vector<int> size = cell_sizes();
        for (int c = 0; c < k; ++c) {
          const int ci = cell[static_cast<std::size_t>(c)];
          const int rank = seen[static_cast<std::size_t>(ci)]++;
          values[static_cast<std::size_t>(c)] =
              rank >= (size[static_cast<std::size_t>(ci)] + 1) / 2 ? 1 : 0;
        }
        tt::TruthTable fn(p);
        for (std::size_t v = 0; v < num_vertices; ++v)
          fn.set(v, values[static_cast<std::size_t>(part[v])] != 0);
        enc.functions.push_back(std::move(fn));
        selected.push_back(enc.total_functions() - 1);
        ++enc.fresh_splitters;
        obs::add("encoding.fresh_splitters");
      }
      apply_split(values);
    }
    assert(num_cells == k && "classes must be fully separated by r functions");
  }
  // Vertex 0 is in class 0, the first class of its cell in every fresh
  // splitter, which gives it the value 0; reused functions are splitters too.
  assert(std::none_of(enc.functions.begin(), enc.functions.end(),
                      [](const tt::TruthTable& fn) { return fn[0]; }));
  obs::add("encoding.outputs_encoded", static_cast<std::uint64_t>(m));
  return enc;
}

bool encoding_is_valid(const Encoding& enc,
                       const std::vector<std::vector<int>>& partitions) {
  for (std::size_t out = 0; out < partitions.size(); ++out) {
    const std::vector<int>& part = partitions[out];
    const int k = num_classes(part);
    std::vector<std::int64_t> code(static_cast<std::size_t>(k), -1);
    for (std::size_t v = 0; v < part.size(); ++v) {
      const std::int64_t c = enc.code_of(static_cast<int>(out), static_cast<int>(v));
      auto& slot = code[static_cast<std::size_t>(part[v])];
      if (slot == -1)
        slot = c;
      else if (slot != c)
        return false;  // not constant within a class
    }
    std::sort(code.begin(), code.end());
    if (std::adjacent_find(code.begin(), code.end()) != code.end())
      return false;  // two classes share a code
  }
  return true;
}

}  // namespace mfd
