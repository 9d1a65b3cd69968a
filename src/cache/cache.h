// The multiplicity cache: one process-wide LRU store of bound-set candidate
// scores, keyed by canonical function signatures (cache/signature.h); a hit
// skips the candidate's cofactor-table construction and ISF colorings.
// Signatures are manager and order independent, so both portfolio entries,
// and every later flow of the process, share the entries. The store keeps
// each search's function set once and its candidates as fixed-size records
// under it, and evicts whole sets. Full design, key scheme, and the
// determinism contract live in docs/CACHING.md.
//
// Determinism contract (docs/CACHING.md): a cache lookup is an optimization
// only. A hit must return exactly what recomputation would return, so runs
// with the cache on and off are bit-identical. Three rules enforce this:
//   1. values are pure functions of their keys (signatures + bound set +
//      seed — never wall-clock, never node layout);
//   2. the cache is not consulted while results could be timing-dependent:
//      memo_safe() fails under an armed resource budget, after any
//      degradation, or past a (fault-injected) deadline;
//   3. the debug cross-check mode (CacheConfig.cross_check, or environment
//      MFD_CACHE_CHECK=1) recomputes every hit and aborts on a mismatch.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cache/signature.h"
#include "core/budget.h"
#include "core/faultinject.h"

namespace mfd::cache {

struct CacheConfig {
  /// Byte budget of the store; eviction drops whole function sets, least
  /// recently used first. 0 turns the cache off: no key is built and
  /// nothing is looked up.
  std::size_t max_bytes = std::size_t{32} << 20;
  /// Recompute every hit and abort on mismatch (debug). The environment
  /// variable MFD_CACHE_CHECK=1 arms it under every configuration.
  bool cross_check = false;
};

/// Replaces the process-wide configuration and empties the store (entries
/// inserted under one configuration must not leak into the next).
void configure(const CacheConfig& config);

/// The active configuration. configure() runs between flows, never during
/// one.
const CacheConfig& config();

/// Empties the store; configuration is untouched.
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

/// The scores of one bound-set candidate: what a hit hands back in place of
/// an evaluation.
struct CandidateScores {
  long benefit = 0;
  int sharing_gap = 0;
  long sum_r = 0;
  std::vector<int> r_per_output;
};

/// The function set of one bound-set search, the part of the key that all
/// its candidates share: the coloring seed, the number of functions, and
/// five words per function. Completely specified functions (care == 1) are
/// complement-normalized per function: the cofactors of !f are the
/// element-wise complements of the cofactors of f, a bijection that leaves
/// every class count, code length, and the joint sharing count unchanged —
/// so f and !f share a set. ISF functions keep raw polarity (an ISF
/// complement is off = care & !on, not an edge flip) and keep the seed
/// relevant (coloring restarts consult it).
struct FunctionSet {
  std::vector<std::uint64_t> words;
  std::uint64_t digest = 0;  ///< of `words`; finds the set in the store
};

FunctionSet function_set(SignatureComputer& sig,
                         const std::vector<std::pair<bdd::Edge, bdd::Edge>>& fns,
                         std::uint64_t seed);

/// The scores stored for the candidate `bound` (variables in candidate
/// order) of `set`, or nullopt. The set's words and the bound are compared
/// in full, so distinct keys never alias. A hit makes the set the most
/// recently used and bumps cache.multiplicity.hits; a miss bumps
/// cache.multiplicity.misses.
std::optional<CandidateScores> lookup(const FunctionSet& set, const std::vector<int>& bound);

/// Stores `scores` for the candidate `bound` of `set`, then evicts whole
/// sets, least recently used first, until the store fits its budget
/// (cache.multiplicity.evictions counts their records). A set that alone
/// outgrows the budget is dropped; a candidate that does not fit the budget
/// even in a set of its own is not stored.
void insert(const FunctionSet& set, const std::vector<int>& bound,
            const CandidateScores& scores);

/// Publishes the store's cache.bytes / cache.entries / cache.sets gauges
/// (counters accumulate live; call this at report flush points).
void publish_stats();

}  // namespace mfd::cache
