// Steps 2 and 3 of the paper's don't-care assignment (Section 5). Both read
// each output's classes from compat's one class analysis (bound_classes,
// decomp/compat.h): ids by cofactor equality, and the conflict rows between
// them unless every entry is cared everywhere.
//
// Step 2 ("sharing-driven"): color the *joint* incompatibility graph and
// merge every color class in all outputs simultaneously. Its vertices are
// the joint classes (JointClasses: distinct tuples of the outputs' ids), and
// two of them conflict as soon as some output's ids of them conflict — for
// an output without rows, as soon as they differ. The number of classes is
// a lower bound on the total number of decomposition functions of the
// multi-output decomposition; minimizing it maximizes the potential to share
// decomposition functions.
//
// Step 3 (Chang & Marek-Sadowska [3,2]): per output, color that output's own
// conflict rows over the remaining don't cares and merge within color
// classes, minimizing each ncc(f_i, B) individually; an output whose every
// entry is cared everywhere (after step 2, too) has no rows, and its ids are
// its classes. Because step 3 only merges vertices that step 2 left jointly
// compatible per output, it cannot split a step-2 class apart, i.e. it
// cannot increase the joint lower bound.
//
// Merging assigns don't cares: every vertex of a class receives the class's
// information union (on = OR of member on-sets, care = OR of member cares),
// which agrees with each member wherever the member cared.
#pragma once

#include <cstdint>
#include <vector>

#include "decomp/compat.h"

namespace mfd {

/// Step 2. Returns the number of joint classes (the lower bound
/// ceil(log2(.)) refers to). Entries of `tables` are updated in place.
int assign_joint(std::vector<CofactorTable>& tables, std::uint64_t seed = 1);

/// Step 3. Merges per output and returns each output's final vertex
/// partition (dense class ids; vertices with identical cofactors share a
/// class). Entries of `tables` are updated in place.
std::vector<std::vector<int>> assign_per_output(std::vector<CofactorTable>& tables,
                                                std::uint64_t seed = 1);

/// Number of classes in a dense partition (max id + 1).
int num_classes(const std::vector<int>& partition);

}  // namespace mfd
