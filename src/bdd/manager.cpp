#include "bdd/bdd.h"

#include <algorithm>
#include <cassert>

#include "core/budget.h"
#include "core/faultinject.h"
#include "obs/obs.h"

namespace mfd::bdd {

namespace {
constexpr std::size_t kCacheInitSize = std::size_t{1} << 16;  // entries
constexpr std::size_t kCacheMaxSize = std::size_t{1} << 22;
constexpr std::size_t kAutoGcMinDead = 4096;       // dead roots, absolute floor
constexpr std::size_t kAutoGcPopulationRatio = 32;  // population:dead-roots trigger
constexpr std::uint32_t kRefSaturated = 0xFFFFFFFFu;
constexpr NodeIndex kNilIndex = 0xFFFFFFFFu;  // end of a unique-table chain
}  // namespace

// ---------------------------------------------------------------------------
// Bdd handle
// ---------------------------------------------------------------------------

Bdd::Bdd(Manager* mgr, Edge id) : mgr_(mgr), id_(id) {
  if (mgr_) mgr_->ref(id_);
}

Bdd::Bdd(const Bdd& other) : mgr_(other.mgr_), id_(other.id_) {
  if (mgr_) mgr_->ref(id_);
}

Bdd::Bdd(Bdd&& other) noexcept : mgr_(other.mgr_), id_(other.id_) {
  other.mgr_ = nullptr;
  other.id_ = kFalse;
}

Bdd& Bdd::operator=(const Bdd& other) {
  if (this == &other) return *this;
  if (other.mgr_) other.mgr_->ref(other.id_);
  release();
  mgr_ = other.mgr_;
  id_ = other.id_;
  return *this;
}

Bdd& Bdd::operator=(Bdd&& other) noexcept {
  if (this == &other) return *this;
  release();
  mgr_ = other.mgr_;
  id_ = other.id_;
  other.mgr_ = nullptr;
  other.id_ = kFalse;
  return *this;
}

Bdd::~Bdd() { release(); }

void Bdd::release() {
  if (mgr_) mgr_->deref(id_);
  mgr_ = nullptr;
  id_ = kFalse;
}

// ---------------------------------------------------------------------------
// Manager: construction, variables
// ---------------------------------------------------------------------------

Manager::Manager(int num_vars) {
  nodes_.reserve(1024);
  // The single terminal ONE occupies index 0; immortal (saturated refs).
  // Its lo/hi fields are never followed.
  nodes_.push_back(Node{kTerminalVar, kTrue, kTrue, kNilIndex, kRefSaturated});
  cache_.resize(kCacheInitSize);
  for (int i = 0; i < num_vars; ++i) add_var();
}

Manager::~Manager() = default;

int Manager::add_var() {
  const int v = num_vars();
  var_to_level_.push_back(v);
  level_to_var_.push_back(v);
  Subtable t;
  t.buckets.assign(16, kNilIndex);
  subtables_.push_back(std::move(t));
  return v;
}

Bdd Manager::var(int v) { return wrap(mk(v, kFalse, kTrue)); }

Bdd Manager::literal(int v, bool positive) {
  return positive ? wrap(mk(v, kFalse, kTrue)) : wrap(mk(v, kTrue, kFalse));
}

// ---------------------------------------------------------------------------
// Unique table
// ---------------------------------------------------------------------------

std::size_t Manager::hash_triple(std::uint32_t var, Edge lo, Edge hi) {
  std::uint64_t h = var;
  h = h * 0x9e3779b97f4a7c15ULL + lo.bits();
  h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ULL + hi.bits();
  h ^= h >> 32;
  return static_cast<std::size_t>(h);
}

void Manager::table_insert(Subtable& t, NodeIndex n) {
  const Node& node = nodes_[n];
  const std::size_t b = hash_triple(node.var, node.lo, node.hi) & (t.buckets.size() - 1);
  nodes_[n].next = t.buckets[b];
  t.buckets[b] = n;
  ++t.count;
  maybe_resize(t);
}

void Manager::table_remove(Subtable& t, NodeIndex n) {
  const Node& node = nodes_[n];
  const std::size_t b = hash_triple(node.var, node.lo, node.hi) & (t.buckets.size() - 1);
  NodeIndex cur = t.buckets[b];
  if (cur == n) {
    t.buckets[b] = node.next;
  } else {
    while (nodes_[cur].next != n) {
      cur = nodes_[cur].next;
      assert(cur != kNilIndex && "node not found in its subtable");
    }
    nodes_[cur].next = node.next;
  }
  --t.count;
}

void Manager::maybe_resize(Subtable& t) {
  if (t.count <= t.buckets.size() * 2) return;
  std::vector<NodeIndex> old = std::move(t.buckets);
  t.buckets.assign(old.size() * 4, kNilIndex);
  for (NodeIndex head : old) {
    for (NodeIndex n = head; n != kNilIndex;) {
      const NodeIndex next = nodes_[n].next;
      const std::size_t b =
          hash_triple(nodes_[n].var, nodes_[n].lo, nodes_[n].hi) & (t.buckets.size() - 1);
      nodes_[n].next = t.buckets[b];
      t.buckets[b] = n;
      n = next;
    }
  }
}

NodeIndex Manager::allocate_node(std::uint32_t var, Edge lo, Edge hi) {
  // Like bdd.mk below, the fault point skips reordering: an injected throw
  // mid-swap would strand the nodes being moved.
  if (fault::armed() && !in_reorder_) fault::point("bdd.alloc");
  NodeIndex n;
  if (!free_list_.empty()) {
    n = free_list_.back();
    free_list_.pop_back();
    nodes_[n] = Node{var, lo, hi, kNilIndex, 0};
  } else {
    n = static_cast<NodeIndex>(nodes_.size());
    nodes_.push_back(Node{var, lo, hi, kNilIndex, 0});
  }
  ++live_nodes_;
  if (live_nodes_ > stats_.peak_nodes) stats_.peak_nodes = live_nodes_;
  return n;
}

Edge Manager::mk(int var, Edge lo, Edge hi) {
  if (lo == hi) return lo;
  // Budget charge and fault point. Both are skipped during reordering: a
  // throw mid-swap would leave the unique tables inconsistent, and
  // reordering is bounded elsewhere. Throwing here is safe otherwise —
  // intermediates of an aborted operation are ref-0 dead roots that the next
  // GC reclaims (OpScope unwinds via RAII).
  if (!in_reorder_) {
    if (governor_ != nullptr) governor_->charge_mk(live_nodes_ + dead_nodes_);
    if (fault::armed()) fault::point("bdd.mk");
  }
  assert(node_level(lo) > var_to_level_[var] && node_level(hi) > var_to_level_[var] &&
         "children must be strictly below the node's level");
  // Canonical form: the stored then-edge is regular. If the then-child is
  // complemented, store the complemented node and tag the returned edge.
  const bool out_c = hi.is_complemented();
  if (out_c) {
    lo = !lo;
    hi = !hi;
  }
  if (op_depth_ == 0) maybe_auto_gc(lo, hi);
  Subtable& t = subtables_[var];
  const std::size_t b =
      hash_triple(static_cast<std::uint32_t>(var), lo, hi) & (t.buckets.size() - 1);
  for (NodeIndex n = t.buckets[b]; n != kNilIndex; n = nodes_[n].next) {
    const Node& node = nodes_[n];
    if (node.lo == lo && node.hi == hi) {
      ++stats_.unique_hits;
      return Edge::make(n, out_c);
    }
  }
  const NodeIndex n = allocate_node(static_cast<std::uint32_t>(var), lo, hi);
  ref(lo);
  ref(hi);
  // allocate_node counted the new node as live, but it has ref 0 until a
  // parent or handle claims it; track it as dead so GC accounting balances.
  --live_nodes_;
  ++dead_nodes_;
  ++t.dead;
  table_insert(t, n);
  return Edge::make(n, out_c);
}

// ---------------------------------------------------------------------------
// Reference counting and garbage collection
// ---------------------------------------------------------------------------

void Manager::ref(Edge e) {
  Node& node = nodes_[e.index()];
  if (node.ref == kRefSaturated) return;
  if (node.ref == 0) {
    ++live_nodes_;
    --dead_nodes_;
    --subtables_[node.var].dead;
  }
  ++node.ref;
}

void Manager::deref(Edge e) {
  Node& node = nodes_[e.index()];
  if (node.ref == kRefSaturated) return;
  assert(node.ref > 0 && "deref of unreferenced node");
  --node.ref;
  if (node.ref == 0) {
    --live_nodes_;
    ++dead_nodes_;
    ++subtables_[node.var].dead;
  }
}

void Manager::garbage_collect() {
  assert(!in_reorder_);
  ++stats_.gc_runs;
  // Process levels top-down: every parent sits at a strictly smaller level
  // than its children, so by the time we scan a level all of its dead parents
  // have already released their edges and one pass suffices. Freeing a node
  // only kills nodes below it, so a subtable's dead count is final when the
  // sweep reaches its level: subtables without dead nodes are skipped and a
  // scan ends at its last dead node, which frees the same nodes in the same
  // order as a full sweep.
  for (int level = 0; level < num_vars() && dead_nodes_ > 0; ++level) {
    Subtable& t = subtables_[level_to_var_[level]];
    for (std::size_t b = 0; b < t.buckets.size() && t.dead > 0; ++b) {
      NodeIndex* link = &t.buckets[b];
      while (*link != kNilIndex) {
        const NodeIndex n = *link;
        Node& node = nodes_[n];
        if (node.ref == 0) {
          *link = node.next;
          --t.count;
          --t.dead;
          deref(node.lo);
          deref(node.hi);
          node.var = kTerminalVar;
          node.lo = node.hi = kInvalid;
          free_list_.push_back(n);
          --dead_nodes_;
        } else {
          link = &node.next;
        }
      }
    }
  }
  assert(dead_nodes_ == 0 && "a dead node escaped the sweep");
  // Node indices may now be recycled: retire every cached operation result
  // by moving to a new epoch. Only when the epoch counter wraps can an old
  // tag come back, so the table is cleared then.
  if (++cache_epoch_ == 0) {
    std::fill(cache_.begin(), cache_.end(), CacheEntry{});
    cache_epoch_ = 1;
  }
}

void Manager::maybe_auto_gc(Edge a, Edge b, Edge c) {
  if (op_depth_ != 0 || gc_pause_ != 0 || in_reorder_) return;
  // Derefs are deferred, so dead_nodes_ counts only the *roots* of dead
  // subgraphs — their interiors stay nominally live until the collection
  // cascade reaches them. Fire once the dead roots pass an absolute floor
  // and a slice of the whole population. The sweep visits only subtables
  // holding dead nodes, so it no longer costs O(population); the trigger is
  // kept because it fixes when collections happen, and with them the node
  // indices, the cache contents and every gc_runs figure.
  if (dead_nodes_ <= kAutoGcMinDead ||
      dead_nodes_ * kAutoGcPopulationRatio <= live_nodes_ + dead_nodes_)
    return;
  // Pin the immediate arguments: they may themselves be unreferenced fresh
  // results the caller is about to combine.
  ref(a);
  ref(b);
  ref(c);
  garbage_collect();
  deref(a);
  deref(b);
  deref(c);
  ++stats_.gc_auto_runs;
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

std::size_t Manager::unique_table_size() const {
  std::size_t total = 0;
  for (const Subtable& t : subtables_) total += t.count;
  return total;
}

void Manager::publish_stats(const char* prefix) const {
  if (!obs::enabled()) return;
  const std::string p(prefix);
  obs::gauge_set(p + ".live_nodes", static_cast<double>(live_nodes_));
  obs::gauge_set(p + ".dead_nodes", static_cast<double>(dead_nodes_));
  obs::gauge_set(p + ".peak_nodes", static_cast<double>(stats_.peak_nodes));
  obs::gauge_set(p + ".unique_table_size", static_cast<double>(unique_table_size()));
  obs::gauge_set(p + ".num_vars", static_cast<double>(num_vars()));
  obs::gauge_set(p + ".unique_hits", static_cast<double>(stats_.unique_hits));
  obs::gauge_set(p + ".cache_hits", static_cast<double>(stats_.cache_hits));
  obs::gauge_set(p + ".cache_lookups", static_cast<double>(stats_.cache_lookups));
  obs::gauge_set(p + ".cache_hit_rate",
                 stats_.cache_lookups == 0
                     ? 0.0
                     : static_cast<double>(stats_.cache_hits) /
                           static_cast<double>(stats_.cache_lookups));
  obs::gauge_set(p + ".cache_size", static_cast<double>(cache_.size()));
  obs::gauge_set(p + ".cache_resizes", static_cast<double>(stats_.cache_resizes));
  obs::gauge_set(p + ".gc_runs", static_cast<double>(stats_.gc_runs));
  obs::gauge_set(p + ".gc_auto_runs", static_cast<double>(stats_.gc_auto_runs));
  obs::gauge_set(p + ".reorder_swaps", static_cast<double>(stats_.reorder_swaps));
}

// ---------------------------------------------------------------------------
// Computed table
// ---------------------------------------------------------------------------

void Manager::maybe_grow_cache() {
  if (cache_.size() >= kCacheMaxSize || live_nodes_ * 2 <= cache_.size()) return;
  // Lossy by design: growing discards the current entries (a resize cannot
  // rehash a direct-mapped table in place, and memo loss only costs time).
  std::size_t next = cache_.size();
  while (next < kCacheMaxSize && live_nodes_ * 2 > next) next *= 2;
  cache_.assign(next, CacheEntry{});
  ++stats_.cache_resizes;
}

Edge Manager::cache_lookup(std::uint32_t op, Edge f, Edge g, Edge h) {
  ++stats_.cache_lookups;
  const std::uint64_t k1 = (static_cast<std::uint64_t>(op) << 32) | f.bits();
  const std::uint64_t k2 = (static_cast<std::uint64_t>(g.bits()) << 32) | h.bits();
  std::uint64_t idx = k1 * 0x9e3779b97f4a7c15ULL ^ k2 * 0xc2b2ae3d27d4eb4fULL;
  idx ^= idx >> 29;
  const CacheEntry& e = cache_[idx & (cache_.size() - 1)];
  if (e.key == k1 && e.key2 == k2 && e.epoch == cache_epoch_) {
    ++stats_.cache_hits;
    return e.result;
  }
  return kInvalid;
}

void Manager::cache_insert(std::uint32_t op, Edge f, Edge g, Edge h, Edge r) {
  maybe_grow_cache();
  const std::uint64_t k1 = (static_cast<std::uint64_t>(op) << 32) | f.bits();
  const std::uint64_t k2 = (static_cast<std::uint64_t>(g.bits()) << 32) | h.bits();
  std::uint64_t idx = k1 * 0x9e3779b97f4a7c15ULL ^ k2 * 0xc2b2ae3d27d4eb4fULL;
  idx ^= idx >> 29;
  cache_[idx & (cache_.size() - 1)] = CacheEntry{k1, k2, r, cache_epoch_};
}

}  // namespace mfd::bdd
