// Maximum-cardinality matching in general graphs (Edmonds' blossom
// algorithm).
//
// The mulop-dcII flow merges pairs of LUTs into XC3000 CLBs; [13] formulates
// the merge as maximum-cardinality matching on the "mergeable" graph. The
// graph is general (not bipartite), so augmenting-path search must shrink
// odd cycles (blossoms). This is the classic O(V^3) implementation; it reads
// a vertex's neighbours as the set bits of its BitGraph row (util/graph.h),
// in ascending order.
#pragma once

#include <vector>

#include "util/graph.h"

namespace mfd {

/// Returns mate[v] = matched partner of v, or -1 if v is unmatched.
/// The returned matching has maximum cardinality.
std::vector<int> maximum_matching(const BitGraph& g);

/// Number of matched pairs in a mate[] array.
int matching_size(const std::vector<int>& mate);

/// True iff mate[] is a valid matching of g (symmetric, edges exist).
bool matching_is_valid(const BitGraph& g, const std::vector<int>& mate);

}  // namespace mfd
