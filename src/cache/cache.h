// Flow-wide memoization: a sharded, mutex-striped, LRU-bounded store keyed
// by canonical function signatures (cache/signature.h). Full design, key
// scheme, and the determinism contract live in docs/CACHING.md.
//
// One cache rides on this layer: the multiplicity cache — whole bound-set
// candidate evaluations (class counts, benefit, sharing gap) per (function
// signatures, bound set, seed); a hit skips the candidate's cofactor-table
// construction and ISF colorings outright. It is shared by both portfolio
// entries (signatures are manager and order independent), so the second
// portfolio run re-scores its candidate windows from the cache.
//
// Determinism contract (docs/CACHING.md): a cache lookup is an optimization
// only. A hit must return exactly what recomputation would return, so cached
// and --no-cache runs are bit-identical. Three rules enforce this:
//   1. values are pure functions of their keys (signatures + bound set +
//      seed — never wall-clock, never node layout);
//   2. no cache is consulted while results could be timing-dependent:
//      memo_safe() fails under an armed resource budget, after any
//      degradation, or past a (fault-injected) deadline;
//   3. the debug cross-check mode (CacheConfig.cross_check, or environment
//      MFD_CACHE_CHECK=1) recomputes every hit and aborts on a mismatch.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/signature.h"
#include "core/budget.h"
#include "core/faultinject.h"

namespace mfd::cache {

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

struct CacheConfig {
  bool multiplicity = true;  ///< bound-set class-count memo
  /// Byte budget of the multiplicity cache; eviction is LRU. 0 stores
  /// nothing (every scoring recomputes).
  std::size_t max_bytes = std::size_t{32} << 20;
  /// Recompute every hit and abort on mismatch (debug). Also armed by the
  /// environment variable MFD_CACHE_CHECK=1 at first configure()/config().
  bool cross_check = false;

  static CacheConfig disabled() {
    CacheConfig c;
    c.multiplicity = false;
    return c;
  }
};

/// Replaces the process-wide configuration and clears the cache (entries
/// inserted under one capacity/mode must not leak into the next).
void configure(const CacheConfig& config);

/// The active configuration (defaults applied on first use).
const CacheConfig& config();

/// Empties the cache; configuration is untouched.
void clear();

/// True when it is safe to serve or store memoized results under `gov`:
/// fault injection disarmed, and either no governor or an unlimited budget
/// at ladder level 0 with a live deadline. Under a real budget (or injected
/// faults) the flow's answers depend on *when* something trips, so
/// memoization could change results across runs — rule 2 of the determinism
/// contract. In particular a memo hit would skip the very code a fault is
/// aimed at, silently un-testing the recovery path.
inline bool memo_safe(const ResourceGovernor* gov) {
  if (fault::armed()) return false;
  return gov == nullptr ||
         (gov->budget().unlimited() && gov->degrade_level() == kDegradeFull &&
          !gov->deadline_expired());
}

// ---------------------------------------------------------------------------
// The shared LRU store
// ---------------------------------------------------------------------------

/// Sharded, mutex-striped LRU map from u64-vector keys to type-erased
/// values. Lookups verify the full key (the digest only routes), so distinct
/// keys never alias. Thread safe: every value is immutable once inserted and
/// equals recomputation.
class LruCache {
 public:
  /// `counter_prefix` names the obs counters ("<prefix>.hits" etc.). The
  /// store holds nothing until set_capacity gives it a budget.
  explicit LruCache(std::string counter_prefix, int shards = 8);

  /// Byte budget, split evenly over the shards; evicts LRU entries (per
  /// shard) until within budget. 0 stores nothing.
  void set_capacity(std::size_t bytes);

  /// The stored value, or nullptr. A hit refreshes LRU recency and bumps
  /// "<prefix>.hits"; a miss bumps "<prefix>.misses".
  std::shared_ptr<const void> lookup(const std::vector<std::uint64_t>& key);

  /// Inserts (or replaces) the value; evicts from the tail until the shard
  /// fits its budget share, bumping "<prefix>.evictions". `value_bytes` is
  /// the caller's estimate of the value's footprint (key words are added).
  void insert(const std::vector<std::uint64_t>& key,
              std::shared_ptr<const void> value, std::size_t value_bytes);

  void clear_all();
  std::size_t bytes() const;
  std::size_t entries() const;

 private:
  struct Entry {
    std::uint64_t digest = 0;
    std::vector<std::uint64_t> key;
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;
    std::size_t bytes = 0;
  };

  Shard& shard_of(std::uint64_t digest) {
    return *shards_[digest % shards_.size()];
  }
  void evict_to_fit(Shard& s);

  std::string prefix_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t capacity_per_shard_ = 0;
};

/// The process-wide multiplicity cache ("cache.multiplicity.*").
LruCache& multiplicity_cache();

// ---------------------------------------------------------------------------
// Typed helpers
// ---------------------------------------------------------------------------

/// Key of one bound-set candidate evaluation: the (on, care) edge of every
/// function under consideration, the bound variables (in candidate order),
/// and the coloring seed. Completely specified functions (care == 1) are
/// complement-normalized per function: the cofactors of !f are the
/// element-wise complements of the cofactors of f, a bijection that leaves
/// every class count, code length, and the joint sharing count unchanged —
/// so f and !f share an entry. ISF functions keep raw polarity (an ISF
/// complement is off = care & !on, not an edge flip) and keep the seed
/// relevant (coloring restarts consult it).
std::vector<std::uint64_t> multiplicity_key(
    SignatureComputer& sig,
    const std::vector<std::pair<bdd::Edge, bdd::Edge>>& fns,
    const std::vector<int>& bound, std::uint64_t seed);

/// Publishes the multiplicity cache's cache.bytes / cache.entries gauges
/// (counters accumulate live; call this at report flush points).
void publish_stats();

}  // namespace mfd::cache
