// Resource-governed synthesis: budgets and the graceful-degradation ladder.
//
// The flow's expensive steps (BDD construction, clique-cover coloring,
// symmetrization, the decomposition recursion itself) are exponential in the
// worst case. Following standard industrial practice (cf. Mishchenko &
// Brayton's budgeted SAT-based don't-care computation), every such step runs
// under an explicit `ResourceGovernor`: a wall-clock deadline and a BDD
// node-population ceiling.
// Tripping a budget raises a typed `BudgetExceeded`; the decomposition
// driver catches it and takes the *degradation ladder*'s one step
//
//   0 full flow  ->  1 structural (Shannon / BDD-mux) floor,
//
// recording it, so the flow always returns a *verified* network plus a
// `DegradationReport` instead of crashing (see docs/ROBUSTNESS.md). There is
// no middle rung: a retry of the tripped subproblem under the same budget
// trips again at once, so the driver goes straight to the floor.
//
// Design notes
// ------------
// * The governor is installed per-flow via `Scope`; subsystems without an
//   explicit context parameter (coloring, symmetrize) consult
//   `ResourceGovernor::current()`, and every `bdd::Manager::mk` charges it,
//   so all BDD work of a flow, in any manager, counts against its budget.
//   `current()` is an inline read of a `constinit thread_local`: `mk` pays
//   one thread-local pointer load for it.
// * Budgets are *soft*: they bound optimization effort, never correctness.
//   The ladder's floor and exact verification run under a `SuspendScope` —
//   the final emission must complete, and that is recorded in the report.
// * Deadline checks in the `mk` hot path are strided (one clock read per
//   ~2048 operations) so governed runs stay within noise of ungoverned ones.
// * `current()` is per thread: each thread installs its own governor, and
//   a governor is only ever charged by the thread that installed it, so
//   every field is plain data and nothing is locked. The decompose pass's
//   conservative portfolio entry runs on a second thread only when the
//   flow has no budget (core/passes.cpp); it installs an unlimited governor
//   of its own there, and the flow thread replays that governor's
//   degradation after the join.
// * This header depends only on core/errors.h and the standard library, so
//   the low-level modules (bdd, util, sym) can include it without cycles.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/errors.h"

namespace mfd {

/// Per-flow resource budget. Zero means "unlimited" for every field.
struct ResourceBudget {
  /// Whole-flow wall-clock deadline in milliseconds.
  double time_ms = 0.0;
  /// Ceiling on the BDD manager's node population (live + dead).
  std::size_t node_ceiling = 0;

  bool unlimited() const { return time_ms <= 0.0 && node_ceiling == 0; }
};

/// The degradation ladder's rungs (monotone per flow).
enum DegradeLevel : int {
  kDegradeFull = 0,        ///< full flow
  kDegradeStructural = 1,  ///< Shannon / BDD-mux fallback only (ladder floor)
};

const char* degrade_level_name(int level);

/// The flow's downgrade, as recorded by ResourceGovernor::degrade.
struct DegradeEvent {
  std::string phase;   ///< where the ladder moved (e.g. "decomp.synth@d=2")
  std::string reason;  ///< the triggering error's message
};

/// What the flow reports next to its (always verified) network: which rung
/// it finished on, its downgrade (at most one), and the rung each primary
/// output was synthesized at.
struct DegradationReport {
  int final_level = kDegradeFull;
  /// Ladder level active when each primary output's subtree completed.
  std::vector<int> per_output_level;
  std::vector<DegradeEvent> events;
  /// Sections that ran with enforcement suspended (ladder floor, verify).
  std::uint64_t suspended_sections = 0;

  bool degraded() const { return final_level > kDegradeFull; }
};

class ResourceGovernor {
 public:
  explicit ResourceGovernor(const ResourceBudget& budget = {});
  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  // ---- hot path ---------------------------------------------------------
  /// One counted BDD operation (called from bdd::Manager::mk with the
  /// current node population). Throws BudgetExceeded on any tripped budget;
  /// a no-op while suspended. The deadline is probed once every
  /// kDeadlineStride operations.
  void charge_mk(std::size_t node_population) {
    if (suspend_ != 0) return;
    const std::uint64_t ops = ++ops_used_;
    if (node_ceiling_ != 0 && node_population > node_ceiling_)
      overrun_nodes(node_population);
    if ((ops & (kDeadlineStride - 1)) == 0) check_deadline("bdd");
  }

  // ---- explicit checkpoints --------------------------------------------
  /// Throws BudgetExceeded(kTime) when the deadline has passed (no-op while
  /// suspended). Call at phase boundaries.
  void check_deadline(const char* where);
  /// Non-throwing deadline query for cooperative early-exit loops
  /// (coloring restarts, symmetrize rounds). False while suspended.
  bool deadline_expired() const noexcept;

  /// Fault injection: moves the deadline into the past, so every subsequent
  /// deadline check fires (the "induced timeout" fault).
  void force_expire() noexcept;

  // ---- degradation ladder ----------------------------------------------
  int degrade_level() const { return report_.final_level; }
  /// Moves the flow to the structural floor, recording the event (and obs
  /// counters) on the first call; later calls change nothing.
  void degrade(const std::string& phase, const std::string& reason);

  // ---- enforcement suspension ------------------------------------------
  /// While at least one SuspendScope is alive, every check is a no-op: used
  /// by the ladder floor and exact verification, which must complete.
  class SuspendScope {
   public:
    explicit SuspendScope(ResourceGovernor& g) : g_(g) {
      ++g_.suspend_;
      ++g_.report_.suspended_sections;
    }
    ~SuspendScope() { --g_.suspend_; }
    SuspendScope(const SuspendScope&) = delete;
    SuspendScope& operator=(const SuspendScope&) = delete;

   private:
    ResourceGovernor& g_;
  };
  bool suspended() const { return suspend_ != 0; }

  // ---- queries ----------------------------------------------------------
  const ResourceBudget& budget() const { return budget_; }
  double elapsed_ms() const;
  /// The ladder state (per_output_level is filled by the flow).
  const DegradationReport& report() const { return report_; }
  void set_per_output_levels(std::vector<int> levels) {
    report_.per_output_level = std::move(levels);
  }
  /// Takes over the degradation that another thread's governor recorded
  /// (its event, if this governor has none yet, and its suspended
  /// sections). Counts nothing in obs: the other thread's report, merged
  /// into this one's, already counts the event.
  void replay(const DegradationReport& other);

  // ---- installation -----------------------------------------------------
  /// Installs the governor as `current()`; restores the previous one on
  /// destruction (scopes nest).
  class Scope {
   public:
    explicit Scope(ResourceGovernor& g);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ResourceGovernor* prev_;
  };
  /// The calling thread's innermost installed governor, or nullptr.
  static ResourceGovernor* current() noexcept { return current_; }

 private:
  static inline constinit thread_local ResourceGovernor* current_ = nullptr;

  [[noreturn]] void overrun_nodes(std::size_t population);

  using Clock = std::chrono::steady_clock;
  // Must stay a power of two: the hot path masks the op count with it.
  static constexpr std::uint64_t kDeadlineStride = 2048;
  static constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

  ResourceBudget budget_;
  Clock::time_point start_;
  Clock::time_point deadline_ = kNoDeadline;
  /// Set by force_expire: the next deadline check throws with a message
  /// attributing the trip to fault injection instead of the real budget.
  bool forced_expire_ = false;
  std::size_t node_ceiling_ = 0;   // immutable after construction
  std::uint64_t ops_used_ = 0;
  int suspend_ = 0;
  DegradationReport report_;
};

}  // namespace mfd
