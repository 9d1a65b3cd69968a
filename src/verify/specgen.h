// Seeded random ISF specification generator for the differential fuzz
// harness (tools/mfd_fuzz, docs/FUZZING.md).
//
// Specs are generated as explicit truth tables (TableSpec) rather than BDDs:
// a table is manager-independent, trivially serializable, and regenerable
// bit-exactly from its seed, which is what the delta-debugging shrinker and
// the reproducer format need. Conversion to and from the flow's Isf
// representation (to_isfs, from_isfs) goes through the truth-table kernel.
//
// The generator deliberately skews toward the shapes that break DC-handling
// code: extreme don't-care densities (including all-DC outputs), constant
// outputs, duplicated outputs, and outputs restricted to a shared subset of
// the inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bdd/bdd.h"
#include "isf/isf.h"
#include "tt/tt.h"

namespace mfd::verify {

/// One multi-output incompletely specified function as explicit truth
/// tables: bit m of outputs[o] describes minterm m (inputs read LSB-first:
/// bit i of m is the value of input i, table variable i).
struct TableSpec {
  int num_inputs = 0;
  struct Output {
    /// Tables over num_inputs variables; on[m] is meaningful only where
    /// care[m] (the invariant on <= care is maintained everywhere).
    tt::TruthTable on;
    tt::TruthTable care;

    friend bool operator==(const Output&, const Output&) = default;
  };
  std::vector<Output> outputs;

  std::size_t table_size() const { return std::size_t{1} << num_inputs; }

  /// Identical (on, care) planes everywhere.
  friend bool operator==(const TableSpec&, const TableSpec&) = default;
};

struct SpecGenOptions {
  int min_inputs = 1;
  int max_inputs = 7;
  int min_outputs = 1;
  int max_outputs = 4;
};

/// Deterministically generates a spec from `seed`: same seed, same tables,
/// on every platform. Input/output counts are drawn skewed toward small;
/// each output independently picks a don't-care density mode (complete,
/// sparse, balanced, heavy, all-DC), with extra modes for constants,
/// duplicates of earlier outputs, and reduced-support functions. Throws
/// mfd::Error unless 0 <= min_inputs <= max_inputs <= tt::kMaxVars and
/// 1 <= min_outputs <= max_outputs.
TableSpec generate_spec(std::uint64_t seed, const SpecGenOptions& opts = {});

/// Builds the spec's ISFs in `m` over manager variables 0..num_inputs-1
/// (growing the manager as needed). Deterministic given the spec.
std::vector<Isf> to_isfs(const TableSpec& spec, bdd::Manager& m);

/// Reads ISFs back into table form; `fns` must depend only on manager
/// variables 0..num_inputs-1, which their manager must have. Throws
/// mfd::Error for more than tt::kMaxVars inputs.
TableSpec from_isfs(const std::vector<Isf>& fns, int num_inputs);

/// Human-oriented one-line shape summary, e.g. "4i/2o dc=37%".
std::string describe(const TableSpec& spec);

}  // namespace mfd::verify
