// Self-contained reproducer files for fuzz failures (docs/FUZZING.md).
//
// A reproducer is a PLA file (type fr: exact care-set preservation, see
// io::pla_from_isfs_exact) with three harness directives prepended:
//
//   .mfdrepro 1          # format version
//   .seed 18446744073709551615   # the oracle option-point seed
//   .note <free text>    # optional triage note (one line)
//
// Everything after the directives is standard espresso PLA, so the spec part
// of a reproducer opens in any PLA tool. Replaying = parse, rebuild the
// TableSpec, re-run the oracle at the recorded seed. Reproducers are loaded
// by `mfd_fuzz --repro` and by the regression corpus test over
// tests/fuzz_corpus/.
#pragma once

#include <cstdint>
#include <string>

#include "verify/oracle.h"
#include "verify/specgen.h"

namespace mfd::verify {

struct Repro {
  TableSpec spec;
  std::uint64_t oracle_seed = 0;
  std::string note;  // single line, informational
};

/// Serializes to reproducer text (directives + exact-care PLA).
std::string write_repro(const Repro& repro);

/// Parses reproducer text. Throws mfd::ParseError on malformed input (missing
/// .mfdrepro/.seed, bad version or PLA body), mfd::Error past tt::kMaxVars inputs.
Repro parse_repro(const std::string& text, const std::string& filename = "<repro>");

/// Re-runs the oracle on the reproducer's spec at its recorded seed.
/// Returns the oracle verdict: ok == true means the failure no longer
/// reproduces (i.e. the bug is fixed — what the regression corpus asserts).
OracleResult replay_repro(const Repro& repro);

/// Reads `path` and replays it. Throws mfd::Error if the file cannot be
/// read, mfd::ParseError if it is malformed.
OracleResult replay_repro_file(const std::string& path);

}  // namespace mfd::verify
