// The recursive multi-output decomposition flow (the paper's mulop-dc).
//
// Per recursion level:
//   1. outputs whose (extension-zero) support fits one LUT are emitted;
//   2. remaining don't cares are assigned to create symmetries (step 1,
//      [20]) — this helps both this level and all deeper ones, because
//      strict decomposition functions inherit symmetries;
//   3. symmetric sifting seeds the variable order; a window + exchange
//      search picks the bound set;
//   4. don't cares are assigned for sharing (step 2) and per-output
//      minimality (step 3, Chang & Marek-Sadowska);
//   5. shared strict decomposition functions are encoded [21] and emitted as
//      LUTs; fresh manager variables stand for their outputs;
//   6. the composition functions — incompletely specified, because unused
//      codes are don't cares — are decomposed recursively.
// When no bound set yields support reduction, a Shannon (mux) step
// guarantees progress.
#pragma once

#include <cstdint>
#include <vector>

#include "decomp/boundset.h"
#include "isf/isf.h"
#include "net/lutnet.h"

namespace mfd {

struct DecomposeOptions {
  /// LUT fanin bound: 5 = XC3000 lookup tables, 2 = two-input gate netlists.
  /// Every table (LUTs and decomposition functions over up to
  /// lut_inputs + max_bound_extra bound variables) must fit tt::kMaxVars;
  /// build_pipeline rejects larger values.
  int lut_inputs = 5;
  /// Master switch: false reproduces the mulopII baseline (all don't cares
  /// assigned 0 before every decomposition step; no DC exploitation at all).
  bool exploit_dc = true;
  bool dc_symmetrize = true;   ///< step 1 (symmetries)
  bool dc_joint = true;        ///< step 2 (sharing-driven)
  bool dc_per_output = true;   ///< step 3 (Chang & Marek-Sadowska)
  /// Compute common decomposition functions across outputs [21].
  bool share_functions = true;
  /// Encode the *joint* partition with one code shared by every output,
  /// which minimizes the total number of decomposition functions — the
  /// strategy of Lai/Pedram/Vrudhula [10]. The paper argues against it
  /// (Section 3): every composition function then sees all
  /// ceil(log2(ncc_joint)) code inputs instead of its own minimal r_i.
  /// Off by default; used by the ablation benchmark reproducing that
  /// comparison.
  bool total_minimal_code = false;
  /// Seed the bound-set search with symmetric sifting [12,15].
  bool symmetric_sift = true;
  /// Also consider bound sets up to `lut_inputs + max_bound_extra` wide;
  /// oversized decomposition functions are synthesized recursively ("if the
  /// number of inputs of alpha is still too large, decomposition has to be
  /// applied recursively to alpha", Section 2). Their extra LUT cost is
  /// charged against the candidate's benefit during the search.
  int max_bound_extra = 1;
  BoundSetOptions boundset;
  std::uint64_t seed = 1;
};

struct DecomposeStats {
  int decomposition_steps = 0;
  int shannon_fallbacks = 0;
  /// Total decomposition functions emitted (after sharing).
  long total_decomposition_functions = 0;
  /// Sum over steps and outputs of r_i (before sharing); the difference to
  /// total_decomposition_functions is what sharing saved.
  long sum_r = 0;
  int symmetrized_pairs = 0;
  int max_depth = 0;
  /// Encoder pool reuses across every step of *this* call (the obs counter
  /// encoding.pool_hits keeps accumulating flow-wide; this field makes the
  /// per-decomposition attribution honest when one flow runs many calls).
  long encoding_pool_hits = 0;
  /// Outputs emitted as direct BDD mux networks (bounded last resort).
  int bdd_mux_fallbacks = 0;
  /// Degradation-ladder level (core/budget.h) active when each primary
  /// output's signal was emitted; all zeros on an undegraded run.
  std::vector<int> output_degrade_level;
};

/// Decomposes the multi-output ISF `fns` into a LUT network.
/// `pi_vars[i]` is the BDD variable standing for network primary input i;
/// every function's support must lie within `pi_vars`. The manager gains
/// auxiliary variables (decomposition-function outputs) during the run.
/// Throws mfd::Error when `fns` is empty.
net::LutNetwork decompose(std::vector<Isf> fns, const std::vector<int>& pi_vars,
                          const DecomposeOptions& opts = {},
                          DecomposeStats* stats = nullptr);

}  // namespace mfd
