// Step 1 of the paper's don't-care assignment: make as many variable pairs
// symmetric as the don't cares allow ([20], heuristic).
//
// Assigning a pair can destroy the achievability of another pair, so the
// order matters; we use a greedy loop that always applies the currently
// most valuable pair and then re-evaluates. "Valuable" prefers pairs that
// can be made symmetric in *every* output (those enlarge the common symmetry
// groups that the bound-set search keeps together) and nonequivalence over
// equivalence symmetry (only NE symmetry feeds the grouping).
#pragma once

#include <vector>

#include "isf/isf.h"
#include "sym/symmetry.h"

namespace mfd {

struct SymmetrizeOptions {
  bool enable_nonequivalence = true;
  bool enable_equivalence = true;
  /// Upper bound on greedy applications (safety valve; the loop otherwise
  /// stops when no pair is applicable).
  int max_applications = 0;  // 0 = 3 * |vars| + 8
};

struct SymmetrizeStats {
  int ne_applied = 0;
  int e_applied = 0;
  int rounds = 0;
};

/// Assigns don't cares of the outputs in `views` (each view is reset to its
/// rewritten function) to create pair symmetries over `vars`. Every
/// assignment only *adds* care points, so the result of each output still
/// admits every extension it admitted that is symmetric in the applied
/// pairs; in particular care-set containment f_before.care() <=
/// f_after.care() holds.
SymmetrizeStats symmetrize(std::vector<OutputView>& views, const std::vector<int>& vars,
                           const SymmetrizeOptions& opts = {});

}  // namespace mfd
