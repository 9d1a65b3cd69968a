// Cross-TU plumbing of the observability subsystem (not part of the public
// surface; include obs/obs.h instead).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/obs.h"

namespace mfd::obs::detail {

void snapshot_scalars(std::map<std::string, std::uint64_t>* out_counters,
                      std::map<std::string, double>* out_gauges);
void reset_scalars();

/// Copy of the phase tree (root "total"); open phases contribute partially
/// elapsed time.
PhaseNode snapshot_phases();
void reset_phases();
/// Merges the children of `root` into the innermost open phase (obs::merge).
void merge_phases(const PhaseNode& root);

}  // namespace mfd::obs::detail
