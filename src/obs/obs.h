// Flow-wide observability: hierarchical phase timers, named counters and
// gauges, and a JSON report — the instrumentation layer every perf PR
// regresses against (see docs/OBSERVABILITY.md for the naming scheme and
// the emitted schema).
//
// Design notes
// ------------
// * One registry per thread. The synthesis flow is a single logical
//   pipeline per run; `Synthesizer::run` resets its thread's registry at
//   entry and snapshots it into the `SynthesisResult` at exit, so callers
//   get a per-run report without threading a context object through every
//   layer.
// * Phase timing is RAII (`ScopedPhase`) and nestable. Each thread has its
//   own phase tree and stack of open phases, and nothing is locked:
//   `collect()` copies the calling thread's tree and credits its open phases
//   with their partially elapsed time.
// * A second thread that works for the flow (the decompose pass's
//   conservative portfolio entry, core/passes.cpp) starts from an empty
//   registry, collects its own report, and the flow thread folds that
//   report into its registry with `merge()` after the join: counters add,
//   gauges keep the larger value, and the report's phases join the flow
//   thread's innermost open phase. Merged phases may have run at the same
//   time as the flow thread's own, so a node's children can add up to more
//   than its wall-clock seconds.
// * Re-entering the phase that is already open ("self-nesting", e.g. the
//   recursive `recurse` phase of the decomposition driver) merges into the
//   open instance: the entry count grows, but time is only measured by the
//   outermost scope — nested wall-clock is never double counted.
// * Counters are monotonic (add-only); gauges are set/max-updated doubles.
//   Ultra-hot per-operation counts (BDD cache hits etc.) stay in their
//   subsystem's local structs and are *published* into the registry at flow
//   flush points — the per-call cost of the registry (a map lookup) is only
//   paid at per-phase granularity.
// * `set_enabled(false)` turns every hook into an early-out, which is how
//   the instrumentation-overhead acceptance test measures the delta. The
//   switch is process-wide: flip it between flows, never during one.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mfd::obs {

// ---------------------------------------------------------------------------
// Global enable switch
// ---------------------------------------------------------------------------

/// True by default; when false every hook (counters, gauges, phases) is a
/// cheap no-op and `collect()` returns an empty report.
bool enabled();
void set_enabled(bool on);

// ---------------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------------

/// Increments the named monotonic counter.
void add(std::string_view name, std::uint64_t delta = 1);

/// Sets the named gauge to `value`.
void gauge_set(std::string_view name, double value);

/// Raises the named gauge to `value` if larger (high-watermark semantics).
void gauge_max(std::string_view name, double value);

/// Current value of a counter (0 if never incremented).
std::uint64_t counter_value(std::string_view name);

/// Current value of a gauge (0.0 if never set).
double gauge_value(std::string_view name);

// ---------------------------------------------------------------------------
// Phase timers
// ---------------------------------------------------------------------------

/// One node of the phase tree. `seconds` is wall-clock time spent in
/// the phase *including* children; `calls` counts scope entries (self-nested
/// entries included).
struct PhaseNode {
  std::string name;
  std::uint64_t calls = 0;
  double seconds = 0.0;
  std::vector<PhaseNode> children;

  /// Child with the given name, or nullptr.
  const PhaseNode* child(std::string_view child_name) const;
  /// Recursive lookup (depth-first), or nullptr.
  const PhaseNode* find(std::string_view node_name) const;
  /// Sum of direct children's seconds (self time = seconds - this).
  double child_seconds() const;
};

/// RAII scope: opens the named phase as a child of the innermost open phase
/// (merging with an existing same-named sibling), closes and accumulates
/// elapsed wall-clock on destruction.
class ScopedPhase {
 public:
  explicit ScopedPhase(std::string_view name);
  ~ScopedPhase();
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  bool active_ = false;
};

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Snapshot of the registry: phase tree (root "total") + counters + gauges. Value type — safe to keep after the registry is reset.
struct Report {
  PhaseNode phases{"total", 0, 0.0, {}};
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;

  /// The report as a JSON document (schema in docs/OBSERVABILITY.md).
  std::string to_json() const;
};

/// Snapshot of the phase tree and the counter/gauge tables. Open phases
/// contribute their partially elapsed time.
Report collect();

/// Folds another thread's report into the calling thread's registry:
/// counters add, gauges keep the larger value, and the children of the
/// report's root phase merge (by name, recursively, adding calls and
/// seconds) into the innermost open phase. A no-op while disabled.
void merge(const Report& report);

/// Clears counters, gauges, and the phase tree. Phases currently open survive
/// as freshly zeroed nodes and keep accumulating into the new epoch.
void reset();

}  // namespace mfd::obs
