// Deterministic fault injection for the robustness suite and field debugging.
//
// A *fault spec* arms one or more rules, each firing exactly once at the
// k-th execution of a named call site:
//
//   spec  :=  rule (',' rule)*
//   rule  :=  site '@' k [':' kind]
//   site  :=  dotted identifier of an instrumented call site (see below)
//   k     :=  1-based hit count at which the rule fires
//   kind  :=  'budget'  (default) throw BudgetExceeded(kInjected)
//           | 'alloc'             throw std::bad_alloc (allocation failure)
//           | 'timeout'           force the installed ResourceGovernor's
//                                 deadline into the past (induced timeout);
//                                 throws BudgetExceeded if no governor is
//                                 installed
//
// Example: "bdd.mk@500:budget,util.coloring@2:timeout".
//
// Instrumented sites: bdd.mk, bdd.alloc, bdd.ite, util.coloring,
// sym.symmetrize, decomp.boundset, decomp.dc_assign (`registered_sites()`
// returns this list; the bench binaries print it via --list-fault-sites).
//
// Configuration comes from `configure()` (the bench binaries' --fault-inject
// flag) or the MFD_FAULT_INJECT environment variable (read once, at
// startup). The harness is process-wide and holds plain data with no lock:
// it costs one load of a plain bool per call site while disarmed, so it
// stays compiled into release builds. An armed harness keeps each flow on
// one thread: the decompose pass runs its portfolio's second entry on a
// thread of its own only while `cache::memo_safe` holds, and that fails
// while any rule is armed. Arm and disarm between flows; a disarmed
// harness is only read.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mfd::fault {

/// Parses and arms a fault spec (replacing any previous one). An empty spec
/// disarms. Throws ParseError (file "<fault-spec>", 1-based rule index as
/// the line) on malformed input, a hit count of 0, or one past 2^64 - 1,
/// leaving the previous spec armed.
void configure(const std::string& spec);

/// Disarms all rules and resets every site counter.
void clear();

/// The instrumented call sites, in documentation order (--list-fault-sites).
std::vector<std::string> registered_sites();

/// The parseable fault kinds, default first.
std::vector<std::string> kind_names();

namespace detail {
extern bool g_armed;
void point_slow(const char* site);
}  // namespace detail

/// True when at least one rule is armed.
inline bool armed() { return detail::g_armed; }

/// Marks one execution of `site`; fires (throws / expires the governor) when
/// an armed rule matches this hit. Call as `if (fault::armed()) fault::point(...)`
/// so disarmed runs pay only the load of one bool.
inline void point(const char* site) {
  if (armed()) detail::point_slow(site);
}

}  // namespace mfd::fault
