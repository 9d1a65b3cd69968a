// Typed error taxonomy of the synthesis flow.
//
// Every error the library throws derives from `mfd::Error` (itself a
// `std::runtime_error`, so legacy catch sites keep working):
//
//   Error
//    +- ParseError       malformed PLA/BLIF input (carries file + 1-based line)
//    +- BddError         violated BDD-level precondition or induced allocation
//    |                   failure (e.g. restrict_to with an empty care set)
//    +- BudgetExceeded   a ResourceGovernor budget tripped (carries which
//    |                   resource and where); recoverable by design — the
//    |                   decomposition driver catches it and drops to the
//    |                   degradation ladder's floor (see docs/ROBUSTNESS.md)
//    +- VerifyError      the synthesized network failed exact verification
//                        (carries circuit, phase, and active degradation
//                        level so table runs are attributable)
//
// This header is dependency-free (standard library only) so every layer —
// bdd, util, sym, io, decomp — can throw typed errors without cycles.
#pragma once

#include <stdexcept>
#include <string>

namespace mfd {

/// Root of the typed error taxonomy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed PLA/BLIF (or fault-injection spec) input. Always carries the
/// source name and the 1-based line number of the offending line (line 0 =
/// whole-input error, e.g. a missing mandatory header).
class ParseError : public Error {
 public:
  ParseError(std::string file, int line, const std::string& message)
      : Error(file + ":" + std::to_string(line) + ": " + message),
        file_(std::move(file)),
        line_(line) {}

  const std::string& file() const { return file_; }
  int line() const { return line_; }

 private:
  std::string file_;
  int line_ = 0;
};

/// Violated precondition or induced failure inside the BDD substrate.
class BddError : public Error {
 public:
  using Error::Error;
};

/// A resource budget tripped. The decomposition driver treats this (and
/// std::bad_alloc) as the signal to degrade; anything escaping to the caller
/// means even degradation could not absorb the fault.
class BudgetExceeded : public Error {
 public:
  enum class Resource { kTime, kNodes, kInjected };

  static const char* resource_name(Resource r) {
    switch (r) {
      case Resource::kTime: return "time";
      case Resource::kNodes: return "nodes";
      case Resource::kInjected: return "injected";
    }
    return "?";
  }

  BudgetExceeded(Resource resource, std::string where, const std::string& detail)
      : Error(std::string("budget exceeded [") + resource_name(resource) + "] at " +
              where + ": " + detail),
        resource_(resource),
        where_(std::move(where)) {}

  Resource resource() const { return resource_; }
  /// The subsystem/phase that tripped the budget (e.g. "bdd.mk").
  const std::string& where() const { return where_; }

 private:
  Resource resource_;
  std::string where_;
};

/// Exact verification of a synthesized network failed. Carries the circuit
/// name, the phase, and the degradation-ladder level that was active, so a
/// failure in a long table1/table2 sweep is attributable to its run.
class VerifyError : public Error {
 public:
  VerifyError(std::string circuit, std::string phase, int degrade_level,
              const std::string& detail)
      : Error("verification failed [circuit=" + (circuit.empty() ? "?" : circuit) +
              " phase=" + phase + " degrade_level=" + std::to_string(degrade_level) +
              "]: " + detail),
        circuit_(std::move(circuit)),
        phase_(std::move(phase)),
        degrade_level_(degrade_level) {}

  const std::string& circuit() const { return circuit_; }
  const std::string& phase() const { return phase_; }
  int degrade_level() const { return degrade_level_; }

 private:
  std::string circuit_;
  std::string phase_;
  int degrade_level_ = 0;
};

}  // namespace mfd
