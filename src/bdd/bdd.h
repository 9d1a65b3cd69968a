// From-scratch ROBDD package with complement edges (the CUDD substitute of
// this reproduction).
//
// Design notes
// ------------
// * Edges are tagged pointers (`Edge`): bit 0 carries the complement
//   attribute, the remaining bits index the node arena. There is a single
//   terminal node ONE at arena index 0; the constants are `kTrue` (a regular
//   edge to ONE) and `kFalse` (a complemented edge to ONE). Negation is O(1) —
//   flip the tag — and f and !f share every node.
// * Canonical form (Brace/Rudell/Bryant): the then-edge of every stored node
//   is regular. `mk` enforces this by complementing both children and
//   returning a complemented edge whenever the then-child arrives
//   complemented, so each function keeps exactly one representation and
//   structural equality remains functional equality.
// * Nodes live in a single arena (`std::vector<Node>`) addressed by 32-bit
//   indices. One unique subtable per *variable* (not per level); dynamic
//   reordering rewrites nodes in place, so parents never need forwarding
//   pointers. The in-place swap preserves the then-regular invariant for
//   free: the (v1=1)-cofactor it feeds into `mk` is itself a stored then-edge
//   and therefore regular.
// * Reference counts (on nodes, not edges) include both external references
//   (held via the RAII `Bdd` handle) and parent edges. Dereferencing only
//   marks nodes dead; `garbage_collect()` reclaims them. Each subtable counts
//   its dead nodes, so the sweep visits only subtables that hold some (in
//   top-down level order, which fixes the free list). Indices may be
//   recycled, so a collection also invalidates the computed table, in O(1):
//   every entry carries the GC epoch it was written in, and the collection
//   advances the epoch. GC also fires reactively from `mk` and operation
//   entry, on either of two rules: the dead subgraph roots pass an absolute
//   floor and a fixed share of the node population, or the population (live
//   + dead) passes twice the live count the last collection left, and at
//   least 2^16. Derefs being deferred, a dropped function of any size is one
//   dead root, so the first rule alone never sees garbage that sits behind
//   a few large roots; the second bounds it. Both fire only between
//   operations (never mid-recursion, never during reordering) and with the
//   immediate arguments pinned; callers that keep *unreferenced* raw results
//   alive across several public calls must hold a `Manager::AutoGcPause`.
// * The computed table is a lossy, direct-mapped cache keyed by
//   (op, f, g, h) edge bits. ITE normalizes its triple first — constant and
//   complementary arguments are rewritten to a standard representative and
//   complements are pushed to the outputs — so equivalent calls such as
//   AND(f,g)/AND(g,f)/!OR(!f,!g) share one cache line. Its size is fixed at
//   2^16 entries (1.5 MiB): between collections the live-node count includes
//   garbage, so it cannot size the table, and no flow's hit rate gains from
//   a larger table, which misses in the CPU caches.
// * Every `mk` outside reordering charges the installed governor
//   (`ResourceGovernor::current()`, core/budget.h), which may throw
//   BudgetExceeded.
//
// The public surface is the `Bdd` value type; `Edge`-level functions are
// exposed for the algorithmic core (decomposition enumerates cofactors in
// tight loops and manages references in bulk).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace mfd::bdd {

/// Arena index of a node (bit 0 of an Edge stripped).
using NodeIndex = std::uint32_t;

/// Tagged edge: (node index << 1) | complement bit. Value-semantic, 4 bytes.
class Edge {
 public:
  /// Default is the constant false function (complemented edge to ONE).
  constexpr Edge() = default;
  constexpr explicit Edge(std::uint32_t bits) : bits_(bits) {}
  static constexpr Edge make(NodeIndex index, bool complemented) {
    return Edge((index << 1) | (complemented ? 1u : 0u));
  }

  constexpr std::uint32_t bits() const { return bits_; }
  constexpr NodeIndex index() const { return bits_ >> 1; }
  constexpr bool is_complemented() const { return (bits_ & 1u) != 0; }
  /// The same edge with the complement bit cleared.
  constexpr Edge regular() const { return Edge(bits_ & ~1u); }

  /// O(1) negation: flip the complement bit.
  constexpr Edge operator!() const { return Edge(bits_ ^ 1u); }
  /// Conditional complement (`e ^ c` complements e iff c).
  constexpr Edge operator^(bool c) const { return Edge(bits_ ^ (c ? 1u : 0u)); }

  friend constexpr bool operator==(Edge a, Edge b) { return a.bits_ == b.bits_; }
  friend constexpr bool operator!=(Edge a, Edge b) { return a.bits_ != b.bits_; }
  // Arbitrary-but-stable order so edges can key std::map / be sorted.
  friend constexpr bool operator<(Edge a, Edge b) { return a.bits_ < b.bits_; }

 private:
  std::uint32_t bits_ = 1;
};

inline constexpr Edge kTrue{0};   // regular edge to the terminal ONE
inline constexpr Edge kFalse{1};  // complemented edge to the terminal ONE
inline constexpr Edge kInvalid{0xFFFFFFFFu};
inline constexpr std::uint32_t kTerminalVar = 0xFFFFFFFFu;

class Manager;

/// RAII handle to a BDD function: keeps the root referenced for its lifetime.
class Bdd {
 public:
  Bdd() = default;
  Bdd(Manager* mgr, Edge id);  // takes one reference on id's node
  Bdd(const Bdd& other);
  Bdd(Bdd&& other) noexcept;
  Bdd& operator=(const Bdd& other);
  Bdd& operator=(Bdd&& other) noexcept;
  ~Bdd();

  bool valid() const { return mgr_ != nullptr; }
  Manager* manager() const { return mgr_; }
  Edge id() const { return id_; }

  bool is_false() const { return id_ == kFalse; }
  bool is_true() const { return id_ == kTrue; }
  bool is_constant() const { return id_.index() == 0; }

  // Structural equality is functional equality (canonicity).
  friend bool operator==(const Bdd& a, const Bdd& b) {
    return a.mgr_ == b.mgr_ && a.id_ == b.id_;
  }
  friend bool operator!=(const Bdd& a, const Bdd& b) { return !(a == b); }

  Bdd operator&(const Bdd& o) const;
  Bdd operator|(const Bdd& o) const;
  Bdd operator^(const Bdd& o) const;
  Bdd operator!() const;  // O(1): same nodes, complemented root edge
  Bdd& operator&=(const Bdd& o) { return *this = *this & o; }
  Bdd& operator|=(const Bdd& o) { return *this = *this | o; }
  Bdd& operator^=(const Bdd& o) { return *this = *this ^ o; }

  /// f & !o  (set difference of on-sets).
  Bdd diff(const Bdd& o) const { return *this & !o; }
  /// XNOR.
  Bdd iff(const Bdd& o) const { return !(*this ^ o); }

  /// Cofactor with respect to a single variable.
  Bdd cofactor(int var, bool value) const;
  /// Number of BDD nodes reachable from this root (including the terminal).
  std::size_t size() const;

 private:
  void release();

  Manager* mgr_ = nullptr;
  Edge id_ = kFalse;
};

/// Statistics snapshot of a manager (for tests, logging, benchmarks).
struct ManagerStats {
  std::size_t live_nodes = 0;
  std::size_t dead_nodes = 0;
  std::size_t peak_nodes = 0;
  std::uint64_t unique_hits = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_auto_runs = 0;  // subset of gc_runs fired by maybe_auto_gc (either rule)
  std::uint64_t reorder_swaps = 0;
};

class Manager {
 public:
  /// Creates a manager with `num_vars` variables x0..x(n-1), initial order
  /// x0 < x1 < ... (level == var index).
  explicit Manager(int num_vars = 0);
  ~Manager();
  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  /// Scoped suppression of reactive GC. Required around sequences of public
  /// operations whose *unreferenced* raw Edge results must stay alive from
  /// one call to the next (e.g. the ISOP recursion); handle-held roots never
  /// need it.
  class AutoGcPause {
   public:
    explicit AutoGcPause(Manager& m) : m_(m) { ++m_.gc_pause_; }
    ~AutoGcPause() { --m_.gc_pause_; }
    AutoGcPause(const AutoGcPause&) = delete;
    AutoGcPause& operator=(const AutoGcPause&) = delete;

   private:
    Manager& m_;
  };

  // ---- variables and order -------------------------------------------
  int num_vars() const { return static_cast<int>(var_to_level_.size()); }
  /// Appends a fresh variable at the bottom of the order; returns its index.
  int add_var();
  int level_of_var(int var) const { return var_to_level_[var]; }
  int var_at_level(int level) const { return level_to_var_[level]; }
  /// Current order as a list of variables, top level first.
  std::vector<int> current_order() const { return level_to_var_; }

  // ---- handles ---------------------------------------------------------
  Bdd bdd_true() { return Bdd(this, kTrue); }
  Bdd bdd_false() { return Bdd(this, kFalse); }
  Bdd constant(bool value) { return Bdd(this, value ? kTrue : kFalse); }
  /// The projection function x_var.
  Bdd var(int v);
  /// x_var or its complement.
  Bdd literal(int v, bool positive);
  /// Wraps an edge into a handle (adds a reference).
  Bdd wrap(Edge id) { return Bdd(this, id); }

  // ---- raw edge access -------------------------------------------------
  std::uint32_t node_var(Edge e) const { return nodes_[e.index()].var; }
  /// Else-cofactor of e's function (the stored edge with e's tag applied).
  Edge node_lo(Edge e) const { return nodes_[e.index()].lo ^ e.is_complemented(); }
  /// Then-cofactor of e's function.
  Edge node_hi(Edge e) const { return nodes_[e.index()].hi ^ e.is_complemented(); }
  bool is_terminal(Edge e) const { return e.index() == 0; }
  int node_level(Edge e) const {
    return is_terminal(e) ? num_vars() : var_to_level_[nodes_[e.index()].var];
  }

  /// Find-or-create the reduced node (var, lo, hi). Returns `lo` if lo==hi.
  /// Canonicalizes so the stored then-edge is regular (see header notes).
  Edge mk(int var, Edge lo, Edge hi);

  void ref(Edge e);
  void deref(Edge e);

  // ---- core operations (Edge level; results returned unreferenced) ----
  Edge ite(Edge f, Edge g, Edge h);
  Edge apply_and(Edge f, Edge g) { return ite(f, g, kFalse); }
  Edge apply_or(Edge f, Edge g) { return ite(f, kTrue, g); }
  Edge apply_xor(Edge f, Edge g);
  Edge apply_not(Edge f) { return !f; }  // O(1)
  Edge cofactor(Edge f, int var, bool value);
  /// Simultaneous cofactor by a partial assignment (var -> value).
  Edge cofactor_cube(Edge f, const std::vector<std::pair<int, bool>>& a);
  /// Coudert-Madre generalized cofactor ("restrict"): returns a function r
  /// with f & care <= r <= f | !care that tends to have a small BDD — the
  /// classic way to spend don't cares (!care) on representation size.
  /// `care` must not be constant false (throws mfd::BddError if it is).
  Edge restrict_to(Edge f, Edge care);

  // ---- queries -----------------------------------------------------------
  bool eval(Edge f, const std::vector<bool>& assignment) const;
  /// Variables f genuinely depends on, ascending by index.
  std::vector<int> support(Edge f) const;
  /// Number of satisfying assignments over `nv` variables.
  double sat_count(Edge f, int nv) const;
  /// Any satisfying assignment (over all manager variables); f must not be
  /// kFalse (throws mfd::BddError if it is).
  std::vector<bool> pick_one(Edge f) const;
  std::size_t dag_size(Edge f) const;
  /// DAG size of a set of roots counted once (shared nodes not double
  /// counted; f and !f share all their nodes).
  std::size_t dag_size(const std::vector<Edge>& roots) const;

  // ---- memory ------------------------------------------------------------
  void garbage_collect();
  std::size_t live_node_count() const { return live_nodes_; }
  const ManagerStats& stats() const { return stats_; }
  /// Total nodes currently held by the unique subtables (live + dead).
  std::size_t unique_table_size() const;
  /// Computed-table capacity in entries (fixed at construction).
  std::size_t cache_size() const { return cache_.size(); }
  /// Publishes this manager's lifetime stats (live/peak nodes, unique-table
  /// size, GC runs, computed-cache size and hit rate, reorder swaps) as
  /// observability gauges under `<prefix>.*` — the flow calls this at report
  /// flush points so the counters in ManagerStats finally surface (see
  /// docs/OBSERVABILITY.md).
  void publish_stats(const char* prefix = "bdd") const;

  // ---- reordering (reorder.cpp) -------------------------------------------
  /// Swaps the variables at levels `level` and `level+1` in place.
  void swap_adjacent_levels(int level);
  /// Reorders to the exact order given (vars listed top level first).
  void set_order(const std::vector<int>& order);
  /// Rudell-style sifting over all variables; returns live node count after.
  std::size_t sift(double max_growth = 2.0);
  /// Sifting that keeps each listed group of variables adjacent (symmetric
  /// sifting in the sense of [12,15]: groups move as blocks). Variables not
  /// mentioned form singleton groups.
  std::size_t sift_symmetric(const std::vector<std::vector<int>>& groups,
                             double max_growth = 2.0);

  // ---- debug output (io.cpp) ----------------------------------------------
  /// Graphviz dot dump of the DAG rooted at the given functions. Complement
  /// edges are drawn with a dot-shaped arrowhead.
  std::string to_dot(const std::vector<Edge>& roots,
                     const std::vector<std::string>& names = {}) const;

 private:
  friend class Bdd;

  struct Node {
    std::uint32_t var;
    Edge lo;            // else-edge, may be complemented
    Edge hi;            // then-edge, always regular (canonical form)
    NodeIndex next;     // unique-table chain
    std::uint32_t ref;  // parents + external handles; saturates at max
  };

  // Cache entry; op tags below. An entry is valid only in the GC epoch it
  // was written in (epoch 0 is never current).
  struct CacheEntry {
    std::uint64_t key = ~0ULL;  // packed (op, f)
    std::uint64_t key2 = 0;     // packed (g, h)
    Edge result = kInvalid;
    std::uint32_t epoch = 0;    // fills what would be padding
  };
  static_assert(sizeof(CacheEntry) == 24, "the epoch tag must not grow entries");

  struct Subtable {
    std::vector<NodeIndex> buckets;
    std::size_t count = 0;  // nodes held, live and dead
    std::size_t dead = 0;   // nodes of this variable with reference count 0
  };

  // The tags are part of every computed-table key and slot, so an op keeps
  // its number when others are deleted.
  enum Op : std::uint32_t {
    kOpIte = 1,
    kOpXor = 2,
    kOpCofactor = 3,
    kOpRestrict = 8,
  };

  /// Marks a public operation in flight: reactive GC stays off until the
  /// outermost operation returns (intermediates have reference count zero).
  struct OpScope {
    explicit OpScope(Manager& m) : m_(m) { ++m_.op_depth_; }
    ~OpScope() { --m_.op_depth_; }
    Manager& m_;
  };

  NodeIndex allocate_node(std::uint32_t var, Edge lo, Edge hi);
  Subtable& table_of(std::uint32_t var) { return subtables_[var]; }
  void table_insert(Subtable& t, NodeIndex n);
  void table_remove(Subtable& t, NodeIndex n);
  void maybe_resize(Subtable& t);
  static std::size_t hash_triple(std::uint32_t var, Edge lo, Edge hi);

  /// Runs GC if dead nodes dominate and no operation/reorder/pause is active;
  /// the argument edges are pinned across the collection.
  void maybe_auto_gc(Edge a, Edge b, Edge c = kTrue);

  Edge cache_lookup(std::uint32_t op, Edge f, Edge g, Edge h);
  void cache_insert(std::uint32_t op, Edge f, Edge g, Edge h, Edge r);

  Edge ite_rec(Edge f, Edge g, Edge h);
  Edge xor_rec(Edge f, Edge g);
  Edge cofactor_rec(Edge f, int var, bool value);
  Edge restrict_rec(Edge f, Edge care);

  // Reordering helpers (reorder.cpp).
  std::size_t block_width(const std::vector<int>& group) const;

  std::vector<Node> nodes_;
  std::vector<NodeIndex> free_list_;
  std::vector<Subtable> subtables_;  // indexed by var
  std::vector<int> var_to_level_;
  std::vector<int> level_to_var_;
  std::vector<CacheEntry> cache_;
  std::uint32_t cache_epoch_ = 1;
  std::size_t live_nodes_ = 0;
  std::size_t dead_nodes_ = 0;
  std::size_t gc_limit_ = 0;  // population that fires the growth rule (maybe_auto_gc)
  int op_depth_ = 0;
  int gc_pause_ = 0;
  bool in_reorder_ = false;
  ManagerStats stats_;
};

}  // namespace mfd::bdd

template <>
struct std::hash<mfd::bdd::Edge> {
  std::size_t operator()(mfd::bdd::Edge e) const noexcept {
    return std::hash<std::uint32_t>{}(e.bits());
  }
};
