// Dynamic variable reordering.
//
// The primitive is the classic in-place adjacent-level swap: every node of
// the upper variable that depends on the lower one is rewritten in place to
// carry the lower variable, so parent edges stay valid and node identity
// keeps meaning "this function". With complement edges the four cofactors
// are read through the stored edges' tags (the else-edge may be
// complemented); the rewritten then-edge comes out regular automatically,
// because the (v1=1)-cofactor fed to `mk` is itself a stored then-edge and
// therefore regular — so the swap preserves the canonical form without a
// normalization pass. Sifting (Rudell) and symmetric/group sifting [12,15]
// are built on top of a block-transposition layer: plain sifting is group
// sifting with singleton blocks.
#include <algorithm>
#include <cassert>
#include <numeric>

#include "bdd/bdd.h"

namespace mfd::bdd {

void Manager::swap_adjacent_levels(int level) {
  assert(level >= 0 && level + 1 < num_vars());
  ++stats_.reorder_swaps;
  in_reorder_ = true;
  const int v0 = level_to_var_[level];
  const int v1 = level_to_var_[level + 1];
  constexpr NodeIndex kNil = 0xFFFFFFFFu;

  // Nodes of v0 whose function depends on v1 must be rewritten; the others
  // simply sink one level, which requires no structural change. If either
  // variable has no nodes, nothing depends on v1 and the scan is skipped.
  Subtable& t0 = subtables_[v0];
  std::vector<NodeIndex> dependent;
  if (t0.count != 0 && subtables_[v1].count != 0) {
    for (NodeIndex head : t0.buckets) {
      for (NodeIndex n = head; n != kNil; n = nodes_[n].next) {
        const Edge lo = nodes_[n].lo, hi = nodes_[n].hi;
        const bool dep =
            (!is_terminal(lo) && nodes_[lo.index()].var == static_cast<std::uint32_t>(v1)) ||
            (!is_terminal(hi) && nodes_[hi.index()].var == static_cast<std::uint32_t>(v1));
        if (dep) dependent.push_back(n);
      }
    }
  }
  for (NodeIndex n : dependent) table_remove(t0, n);

  // Update the order before creating nodes so mk()'s level invariant holds.
  level_to_var_[level] = v1;
  level_to_var_[level + 1] = v0;
  var_to_level_[v0] = level + 1;
  var_to_level_[v1] = level;

  for (NodeIndex n : dependent) {
    const Edge lo = nodes_[n].lo, hi = nodes_[n].hi;
    const bool lo_dep =
        !is_terminal(lo) && nodes_[lo.index()].var == static_cast<std::uint32_t>(v1);
    const bool hi_dep =
        !is_terminal(hi) && nodes_[hi.index()].var == static_cast<std::uint32_t>(v1);
    // Cofactors of the node's (regular) function; the else-edge's complement
    // tag distributes onto its children, the then-edge is regular.
    const Edge f00 = lo_dep ? node_lo(lo) : lo;  // f | v0=0, v1=0
    const Edge f01 = lo_dep ? node_hi(lo) : lo;  // f | v0=0, v1=1
    const Edge f10 = hi_dep ? node_lo(hi) : hi;  // f | v0=1, v1=0
    const Edge f11 = hi_dep ? node_hi(hi) : hi;  // f | v0=1, v1=1

    const Edge a = mk(v0, f00, f10);  // f | v1=0
    const Edge b = mk(v0, f01, f11);  // f | v1=1
    // A dependent node cannot collapse: a == b would mean f ignores v1.
    assert(a != b);
    // f11 is a then-cofactor and thus regular, so mk never complements b and
    // the rewritten node keeps the then-regular invariant.
    assert(!b.is_complemented());
    ref(a);
    ref(b);
    deref(lo);
    deref(hi);
    if (nodes_[n].ref == 0) {  // a dead node moves its dead count along
      --subtables_[v0].dead;
      ++subtables_[v1].dead;
    }
    nodes_[n].var = static_cast<std::uint32_t>(v1);
    nodes_[n].lo = a;
    nodes_[n].hi = b;
    table_insert(subtables_[v1], n);
  }
  in_reorder_ = false;
}

void Manager::set_order(const std::vector<int>& order) {
  assert(static_cast<int>(order.size()) == num_vars());
  for (int target = 0; target < num_vars(); ++target) {
    const int v = order[target];
    for (int cur = var_to_level_[v]; cur > target; --cur)
      swap_adjacent_levels(cur - 1);
  }
}

std::size_t Manager::block_width(const std::vector<int>& group) const {
  std::size_t w = 0;
  for (int v : group) w += subtables_[v].count;
  return w;
}

namespace {

/// Transposes two level-adjacent blocks of variables by bubbling each
/// variable of the lower block up through the upper block.
/// `upper` occupies levels [a, a+|upper|), `lower` directly below.
void transpose_blocks(Manager& m, int a, int upper_size, int lower_size) {
  for (int i = 0; i < lower_size; ++i) {
    // The topmost not-yet-moved variable of the lower block sits at level
    // a + upper_size + i - i = a + upper_size (the block above it grew by the
    // i already-moved variables). Bubble it up to level a + i.
    for (int lev = a + upper_size + i - 1; lev >= a + i; --lev)
      m.swap_adjacent_levels(lev);
  }
}

}  // namespace

std::size_t Manager::sift_symmetric(const std::vector<std::vector<int>>& groups,
                                    double max_growth) {
  garbage_collect();
  const int n = num_vars();
  if (n <= 1) return live_node_count();

  // Build the block partition: listed groups plus singletons for the rest.
  std::vector<int> group_of(static_cast<std::size_t>(n), -1);
  std::vector<std::vector<int>> blocks;
  for (const auto& g : groups) {
    if (g.empty()) continue;
    blocks.push_back(g);
    for (int v : g) {
      assert(group_of[v] == -1 && "variable listed in two groups");
      group_of[v] = static_cast<int>(blocks.size()) - 1;
    }
  }
  for (int v = 0; v < n; ++v) {
    if (group_of[v] == -1) {
      blocks.push_back({v});
      group_of[v] = static_cast<int>(blocks.size()) - 1;
    }
  }

  // Make every block contiguous, anchored at its topmost member, preserving
  // the relative order of blocks.
  {
    std::vector<int> new_order;
    std::vector<bool> emitted(blocks.size(), false);
    for (int lev = 0; lev < n; ++lev) {
      const int b = group_of[level_to_var_[lev]];
      if (emitted[b]) continue;
      emitted[b] = true;
      // Emit the block's members in their current relative order.
      std::vector<int> members = blocks[b];
      std::sort(members.begin(), members.end(),
                [&](int x, int y) { return var_to_level_[x] < var_to_level_[y]; });
      blocks[b] = members;
      for (int v : members) new_order.push_back(v);
    }
    set_order(new_order);
  }

  // Level-ordered sequence of block indices and the level each starts at.
  std::vector<int> seq;
  std::vector<int> start;
  for (int lev = 0; lev < n;) {
    const int b = group_of[level_to_var_[lev]];
    seq.push_back(b);
    start.push_back(lev);
    lev += static_cast<int>(blocks[b].size());
  }
  const int nb = static_cast<int>(seq.size());

  auto pos_in_seq = [&](int b) {
    for (int i = 0; i < nb; ++i)
      if (seq[i] == b) return i;
    return -1;
  };
  auto transpose_at = [&](int pos) {  // swap seq[pos] and seq[pos+1]
    const int upper = static_cast<int>(blocks[seq[pos]].size());
    const int lower = static_cast<int>(blocks[seq[pos + 1]].size());
    transpose_blocks(*this, start[pos], upper, lower);
    std::swap(seq[pos], seq[pos + 1]);
    start[pos + 1] = start[pos] + lower;
    // Swaps strand dead nodes in the subtables; worse, rewriting a dead node
    // allocates children that are counted live (reference counts include
    // dead parents), so garbage silently accumulates as "live" growth and
    // later swaps keep paying for it. Reclaim early and often.
    if (dead_nodes_ > 256 && dead_nodes_ * 4 > live_nodes_) garbage_collect();
  };

  // Sift blocks in decreasing width order.
  std::vector<int> by_width(blocks.size());
  std::iota(by_width.begin(), by_width.end(), 0);
  std::sort(by_width.begin(), by_width.end(), [&](int x, int y) {
    return block_width(blocks[x]) > block_width(blocks[y]);
  });

  for (int b : by_width) {
    // Start every block from a garbage-free heap so the growth limit below
    // measures real function size, not strandings of the previous block.
    if (dead_nodes_ > 0) garbage_collect();
    // A block without nodes changes no node as it moves (neither swap
    // partner depends on it), and the heap is garbage-free, so no collection
    // fires either: its sift would keep the count constant all the way down
    // and up and settle back at its start. Skip the round trip.
    if (block_width(blocks[b]) == 0) continue;
    const std::size_t start_count = live_node_count();
    const std::size_t limit =
        static_cast<std::size_t>(static_cast<double>(start_count) * max_growth) + 16;
    int pos = pos_in_seq(b);
    int best_pos = pos;
    std::size_t best_count = start_count;

    // Down, then up, then settle at the best position seen.
    int lowest = pos;
    while (lowest + 1 < nb && live_node_count() <= limit) {
      transpose_at(lowest);
      ++lowest;
      if (live_node_count() < best_count) {
        best_count = live_node_count();
        best_pos = lowest;
      }
    }
    int cur = lowest;
    while (cur > 0 && live_node_count() <= limit) {
      transpose_at(cur - 1);
      --cur;
      if (live_node_count() < best_count ||
          (live_node_count() == best_count && cur == pos)) {
        best_count = live_node_count();
        best_pos = cur;
      }
    }
    while (cur < best_pos) {
      transpose_at(cur);
      ++cur;
    }
    while (cur > best_pos) {
      transpose_at(cur - 1);
      --cur;
    }
  }
  garbage_collect();
  return live_node_count();
}

std::size_t Manager::sift(double max_growth) {
  return sift_symmetric({}, max_growth);
}

}  // namespace mfd::bdd
