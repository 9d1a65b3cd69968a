// The differential oracle of the fuzz harness (docs/FUZZING.md).
//
// Given a generated TableSpec and a seed, the oracle derives a set of
// *option points* — full-flow configurations varying LUT size, bound-set
// seed, portfolio, pass set, and (occasionally) a node budget — runs the
// synthesizer at every point, and checks each emitted network
// independently of the flow's own verifier:
//   * exact admissibility on the care set (net::check_exact),
//   * simulation agreement with the spec's own tables (net::simulate over
//     every minterm; it shares no code with to_isfs or the BDD rebuild),
//   * BLIF export → re-parse → BDD equivalence (io round-trip),
// plus, once per spec, PLA round-trip idempotence (pla_from_isfs_exact must
// reproduce (on, care) verbatim; the lossy fd writer must stay admissible).
//
// Option points that promise determinism (the same flow options, run one
// after the other in one process) carry the same group tag and are
// cross-checked for bit-identical networks (every LUT's fanins and table,
// and the outputs) — the differential part: state one flow leaves behind
// (thread-local scratch buffers, the obs registry) must not change the
// next network, and a miscompare is a bug even when both networks are
// admissible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/synthesizer.h"
#include "verify/specgen.h"

namespace mfd::verify {

/// One flow configuration the oracle runs.
struct OptionPoint {
  std::string label;
  SynthesisOptions opts;  // verify=false: the oracle checks independently
  /// Points sharing a non-empty group promise bit-identical networks.
  std::string group;
};

struct OracleResult {
  bool ok = true;
  std::string failure;        ///< empty when ok; else what went wrong
  std::string failing_point;  ///< label of the point that failed, if any
  int points_run = 0;
  int checks_run = 0;
};

/// Derives the option points for `seed` (deterministic; exposed so the
/// reproducer format can name them).
std::vector<OptionPoint> derive_option_points(std::uint64_t seed);

/// Runs every option point against `spec` and cross-checks determinism
/// groups. Never throws for spec-induced failures — they come back in the
/// result.
OracleResult run_oracle(const TableSpec& spec, std::uint64_t seed);

}  // namespace mfd::verify
