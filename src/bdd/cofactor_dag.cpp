#include "bdd/cofactor_dag.h"

#include <algorithm>
#include <bit>

namespace mfd::bdd {
namespace {

std::size_t hash_node(int level, std::uint32_t lo, std::uint32_t hi) {
  std::uint64_t h = ((std::uint64_t{lo} << 32) | hi) * 0x9e3779b97f4a7c15ULL;
  h ^= static_cast<std::uint64_t>(level) * 0xc2b2ae3d27d4eb4fULL;
  return static_cast<std::size_t>(h ^ (h >> 29));
}

}  // namespace

// ---------------------------------------------------------------------------
// IdSet
// ---------------------------------------------------------------------------

std::size_t CofactorDag::IdSet::find(const Key& k) const {
  std::uint64_t h = 0;
  for (const Id id : k) h = (h ^ id) * 0x9e3779b97f4a7c15ULL;
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = static_cast<std::size_t>(h ^ (h >> 32)) & mask;
  while (slots_[s].epoch == epoch_ && slots_[s].key != k) s = (s + 1) & mask;
  return s;
}

bool CofactorDag::IdSet::contains(const Key& k) const {
  return !slots_.empty() && slots_[find(k)].epoch == epoch_;
}

void CofactorDag::IdSet::insert(const Key& k) {
  if (2 * (count_ + 1) > slots_.size()) {
    std::vector<Slot> old(std::max<std::size_t>(64, 2 * slots_.size()));
    old.swap(slots_);
    for (const Slot& s : old)
      if (s.epoch == epoch_) slots_[find(s.key)] = s;
  }
  Slot& s = slots_[find(k)];
  if (s.epoch == epoch_) return;
  s = Slot{k, epoch_};
  ++count_;
}

void CofactorDag::IdSet::clear() {
  count_ = 0;
  if (++epoch_ != 0) return;
  for (Slot& s : slots_) s.epoch = 0;  // the epoch wrapped
  epoch_ = 1;
}

// ---------------------------------------------------------------------------
// Import and hash-consing
// ---------------------------------------------------------------------------

CofactorDag::CofactorDag(const Manager& m, Edge on, Edge care) {
  const int n = m.num_vars();
  level_of_var_.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) level_of_var_[static_cast<std::size_t>(v)] = m.level_of_var(v);
  level_used_.assign(static_cast<std::size_t>(n), 0);
  nodes_.push_back(Node{kLeafLevel, kZero, kZero});
  nodes_.push_back(Node{kLeafLevel, kOne, kOne});
  rehash(64);
  // epoch_ is 0 while importing, which tags every node as imported.
  std::unordered_map<std::uint32_t, Id> memo;
  on_ = import(m, on, memo);
  care_ = import(m, care, memo);
  imported_ = base_end_ = nodes_.size();
  epoch_ = 1;
}

CofactorDag::Id CofactorDag::import(const Manager& m, Edge e,
                                    std::unordered_map<std::uint32_t, Id>& memo) {
  if (m.is_terminal(e)) return e == kTrue ? kOne : kZero;
  if (const auto it = memo.find(e.bits()); it != memo.end()) return it->second;
  const Id lo = import(m, m.node_lo(e), memo);
  const Id hi = import(m, m.node_hi(e), memo);
  const int level = m.node_level(e);
  level_used_[static_cast<std::size_t>(level)] = 1;
  const Id id = mk(level, lo, hi);
  memo.emplace(e.bits(), id);
  return id;
}

CofactorDag::Id CofactorDag::mk(int level, Id lo, Id hi) {
  if (lo == hi) return lo;
  const std::size_t mask = unique_.size() - 1;
  std::size_t s = hash_node(level, lo, hi) & mask;
  for (;; s = (s + 1) & mask) {
    const auto [id, tag] = unique_[s];
    if (id == kNoId || (tag != 0 && tag != epoch_ && tag != base_tag_)) break;  // free or freed
    const Node& n = nodes_[id];
    if (n.level == level && n.lo == lo && n.hi == hi) return id;
  }
  const Id id = static_cast<Id>(nodes_.size());
  nodes_.push_back(Node{level, lo, hi});
  unique_[s] = {id, epoch_};
  if (epoch_ != 0) ++built_;
  if (2 * nodes_.size() > unique_.size()) rehash(2 * unique_.size());
  return id;
}

void CofactorDag::insert_slot(Id id, std::uint32_t tag) {
  const Node& n = nodes_[id];
  const std::size_t mask = unique_.size() - 1;
  std::size_t s = hash_node(n.level, n.lo, n.hi) & mask;
  while (unique_[s].first != kNoId) s = (s + 1) & mask;
  unique_[s] = {id, tag};
}

std::uint32_t CofactorDag::tag_of(Id id) const {
  return id < imported_ ? 0 : id < base_end_ ? base_tag_ : epoch_;
}

void CofactorDag::rehash(std::size_t capacity) {
  unique_.assign(capacity, {kNoId, 0});
  for (Id id = 2; id < nodes_.size(); ++id) insert_slot(id, tag_of(id));
}

void CofactorDag::next_epoch() {
  if (++epoch_ != 0) return;
  // The epoch wrapped: forget every freed slot. Epochs only grow, so the
  // base's tag stays below every later scratch epoch.
  base_tag_ = base_end_ > imported_ ? 1 : 0;
  epoch_ = 2;
  rehash(unique_.size());
}

void CofactorDag::drop_scratch() {
  nodes_.resize(base_end_);
  done_.clear();
  next_epoch();
}

void CofactorDag::set_base(const std::vector<int>& base) {
  release_base();
  cut_of(base);
  frontier_.assign(1, {on_, care_});
  for (const auto& [level, k] : cut_) pass(level);
  base_levels_.clear();
  for (const auto& [level, k] : cut_) base_levels_.push_back(level);
  base_frontier_ = frontier_;
  // The nodes built so far carry the current epoch, which becomes the base's.
  base_end_ = nodes_.size();
  base_tag_ = epoch_;
  next_epoch();
}

void CofactorDag::release_base() {
  base_end_ = imported_;
  base_tag_ = 0;
  base_levels_.clear();
  base_frontier_.clear();
  drop_scratch();
}

// ---------------------------------------------------------------------------
// Cofactor passes
// ---------------------------------------------------------------------------

int CofactorDag::level_of(int var) const {
  return var >= 0 && static_cast<std::size_t>(var) < level_of_var_.size()
             ? level_of_var_[static_cast<std::size_t>(var)]
             : -1;
}

std::pair<CofactorDag::Id, CofactorDag::Id> CofactorDag::split(Id x, int level) {
  const Node n = nodes_[x];  // mk below may move the nodes
  if (n.level > level) return {x, x};
  if (n.level == level) return {n.lo, n.hi};
  if (split_stamp_[x] == pass_) return split_memo_[x];
  const auto [lo0, lo1] = split(n.lo, level);
  const auto [hi0, hi1] = split(n.hi, level);
  const std::pair<Id, Id> r{mk(n.level, lo0, hi0), mk(n.level, lo1, hi1)};
  split_stamp_[x] = pass_;
  split_memo_[x] = r;
  return r;
}

void CofactorDag::cut_of(const std::vector<int>& vars) {
  cut_.clear();
  for (std::size_t k = 0; k < vars.size(); ++k) {
    const int level = level_of(vars[k]);
    if (level >= 0 && level_used_[static_cast<std::size_t>(level)]) cut_.emplace_back(level, k);
  }
  std::sort(cut_.begin(), cut_.end());
}

void CofactorDag::pass(int level) {
  // A pass splits only nodes from before it, so the memo covers them.
  if (++pass_ == 0) {  // the pass counter wrapped
    std::fill(split_stamp_.begin(), split_stamp_.end(), 0);
    pass_ = 1;
  }
  split_stamp_.resize(nodes_.size(), 0);
  split_memo_.resize(nodes_.size());
  const std::size_t half = frontier_.size();
  next_.resize(2 * half);
  for (std::size_t i = 0; i < half; ++i) {
    const auto [on0, on1] = split(frontier_[i].first, level);
    const auto [care0, care1] = split(frontier_[i].second, level);
    next_[i] = {on0, care0};
    next_[i + half] = {on1, care1};
  }
  frontier_.swap(next_);
}

bool CofactorDag::cofactors(const std::vector<int>& bound,
                            std::vector<std::pair<Id, Id>>& out) {
  // The cut: the bound variables with a node in the import, top level first.
  // When it holds every base level, the base's levels move to its front and
  // their passes are the base's.
  cut_of(bound);
  const auto in_base = [&](const std::pair<int, std::size_t>& c) {
    return std::binary_search(base_levels_.begin(), base_levels_.end(), c.first);
  };
  const bool from_base =
      !base_levels_.empty() &&
      static_cast<std::size_t>(std::count_if(cut_.begin(), cut_.end(), in_base)) ==
          base_levels_.size();
  std::size_t done = 0;
  if (from_base) {
    std::stable_partition(cut_.begin(), cut_.end(), in_base);
    frontier_ = base_frontier_;
    done = base_levels_.size();
  } else {
    frontier_.assign(1, {on_, care_});
  }

  // After pass j, frontier entry i is the cofactor whose j-th cut variable
  // takes bit j of i.
  for (std::size_t j = done; j < cut_.size(); ++j) pass(cut_[j].first);

  // Frontier index of each vertex, one set bit at a time: vertex v adds to
  // the index of v without its lowest bit the bit of that bound position.
  std::size_t bit_of_position[32] = {};
  for (std::size_t j = 0; j < cut_.size(); ++j)
    bit_of_position[cut_[j].second] = std::size_t{1} << j;
  out.resize(std::size_t{1} << bound.size());
  index_of_vertex_.resize(out.size());
  index_of_vertex_[0] = 0;
  out[0] = frontier_[0];
  for (std::size_t v = 1; v < out.size(); ++v) {
    const std::size_t i =
        index_of_vertex_[v & (v - 1)] | bit_of_position[std::countr_zero(v)];
    index_of_vertex_[v] = i;
    out[v] = frontier_[i];
  }
  return from_base;
}

// ---------------------------------------------------------------------------
// Walks
// ---------------------------------------------------------------------------

CofactorDag::Fix CofactorDag::fix(const Pair& p) const {
  Fix f;
  f.level[0] = level_of(p.var_a);
  f.value[0] = p.a;
  f.level[1] = level_of(p.var_b);
  f.value[1] = p.b;
  if (f.level[0] > f.level[1]) {
    std::swap(f.level[0], f.level[1]);
    std::swap(f.value[0], f.value[1]);
  }
  return f;
}

CofactorDag::Id CofactorDag::resolve(Id x, const Fix& f) const {
  // Ascending levels: a child of the first fixed level may sit on the second.
  for (int i = 0; i < 2; ++i) {
    const Node& n = nodes_[x];
    if (n.level == f.level[i]) x = f.value[i] ? n.hi : n.lo;
  }
  return x;
}

bool CofactorDag::conflict(Id on_a, Id care_a, Id on_b, Id care_b) {
  return conflict_rec(on_a, care_a, on_b, care_b);
}

void CofactorDag::fix_sides(const Pair* x, const Pair* y) {
  fix_a_ = x != nullptr ? fix(*x) : Fix{};
  fix_b_ = y != nullptr ? fix(*y) : Fix{};
  fixed_until_ = std::max(fix_a_.level[1], fix_b_.level[1]);
  done_.clear();
}

bool CofactorDag::equal(Id root, const Pair& x, const Pair& y) {
  fix_sides(&x, &y);
  const bool answer = equal_rec(root, root);
  fix_sides(nullptr, nullptr);
  return answer;
}

bool CofactorDag::conflict(const Pair& x, const Pair& y) {
  fix_sides(&x, &y);
  const bool answer = conflict_rec(on_, care_, on_, care_);
  fix_sides(nullptr, nullptr);
  return answer;
}

bool CofactorDag::equal_rec(Id x, Id y) {
  x = resolve(x, fix_a_);
  y = resolve(y, fix_b_);
  const Node nx = nodes_[x], ny = nodes_[y];
  const int top = std::min(nx.level, ny.level);
  // Below every fixed level both sides are plain functions: canonical ids.
  if (top > fixed_until_) return x == y;
  const IdSet::Key key{x, y, kNoId, kNoId};
  if (done_.contains(key)) return true;
  const bool sx = nx.level == top, sy = ny.level == top;
  if (!equal_rec(sx ? nx.lo : x, sy ? ny.lo : y) || !equal_rec(sx ? nx.hi : x, sy ? ny.hi : y))
    return false;
  done_.insert(key);
  return true;
}

bool CofactorDag::conflict_rec(Id on_a, Id care_a, Id on_b, Id care_b) {
  on_a = resolve(on_a, fix_a_);
  care_a = resolve(care_a, fix_a_);
  on_b = resolve(on_b, fix_b_);
  care_b = resolve(care_b, fix_b_);
  if (care_a == kZero || care_b == kZero) return false;
  const Node n[4] = {nodes_[on_a], nodes_[care_a], nodes_[on_b], nodes_[care_b]};
  const int top = std::min({n[0].level, n[1].level, n[2].level, n[3].level});
  if (top > fixed_until_) {
    // Plain functions: equal on-sets never conflict, different ones do where
    // both care everywhere (in particular once all four are constants).
    if (on_a == on_b) return false;
    if (care_a == kOne && care_b == kOne) return true;
  }
  const IdSet::Key key{on_a, care_a, on_b, care_b};
  if (done_.contains(key)) return false;
  Id lo[4], hi[4];
  const Id ids[4] = {on_a, care_a, on_b, care_b};
  for (int i = 0; i < 4; ++i) {
    const bool s = n[i].level == top;
    lo[i] = s ? n[i].lo : ids[i];
    hi[i] = s ? n[i].hi : ids[i];
  }
  if (conflict_rec(lo[0], lo[1], lo[2], lo[3]) || conflict_rec(hi[0], hi[1], hi[2], hi[3]))
    return true;
  done_.insert(key);
  return false;
}

}  // namespace mfd::bdd
