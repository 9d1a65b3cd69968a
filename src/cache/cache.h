// What remains of the memoization layer: the contract that the bound-set
// search's reuse obeys. Each output view keeps one answer per cut it has
// scored (sym/symmetry.h), for the life of one decomposition step; nothing
// is memoized across steps, searches or flows. Full design and the
// determinism contract live in docs/CACHING.md.
//
// Determinism contract (docs/CACHING.md): a reused answer is an
// optimization only. It must equal what recomputation would return, so a
// run that reuses and one that recomputes are bit-identical. Three rules
// enforce this:
//   1. answers are pure functions of their keys (the output, the cut and
//      the coloring seed; never wall-clock, never node layout);
//   2. nothing is stored or reused while results could be timing-dependent:
//      memo_safe() fails under an armed resource budget, after any
//      degradation, or past a (fault-injected) deadline;
//   3. the debug cross-check mode (CacheConfig.cross_check, or environment
//      MFD_CACHE_CHECK=1) recomputes every answer on the shared manager and
//      aborts on a mismatch.
#pragma once

#include "core/budget.h"
#include "core/faultinject.h"

namespace mfd::cache {

struct CacheConfig {
  /// Recompute every view answer and every reused answer on the shared
  /// manager and abort on a mismatch (debug). The environment variable
  /// MFD_CACHE_CHECK=1 arms it under every configuration.
  bool cross_check = false;
};

/// Replaces the process-wide configuration. Flows read it, so configure()
/// runs between flows, never during one.
void configure(const CacheConfig& config);

/// The active configuration.
const CacheConfig& config();

/// Does nothing: no store outlives a decomposition step. Kept for callers
/// that clear between runs (the benchmark driver).
void clear();

/// Does nothing: the layer has no store to report. Kept for callers that
/// publish it at report flush points (the benchmark driver).
void publish_stats();

/// True when it is safe to store or reuse answers under `gov`: fault
/// injection disarmed, and either no governor or an unlimited budget at
/// ladder level 0 with a live deadline. Under a real budget (or injected
/// faults) the flow's answers depend on *when* something trips, so reuse
/// could change results across runs (rule 2 of the determinism contract).
/// In particular a reused answer would skip the very code a fault is aimed
/// at, silently un-testing the recovery path.
inline bool memo_safe(const ResourceGovernor* gov) {
  if (fault::armed()) return false;
  return gov == nullptr ||
         (gov->budget().unlimited() && gov->degrade_level() == kDegradeFull &&
          !gov->deadline_expired());
}

}  // namespace mfd::cache
