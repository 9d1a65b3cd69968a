// Top-level synthesis API: the paper's complete flow in one call.
//
// The flow is a *pass pipeline* over the LUT-network IR (net/passmgr.h);
// the default pipeline is
//
//   spec (multi-output ISF or Benchmark)
//     -> decompose    recursive decomposition portfolio with 3-step
//                     don't-care assignment (mulop-dc)
//     -> simplify     structural cleanup + single-fanout repacking
//     -> odc_resubst  network-level ODC/SDC feedback: per-LUT windowed
//                     don't cares, re-minimized with the ISF machinery
//     -> pack         XC3000 CLB packing, greedy + matching (analysis)
//
// followed by exact verification against the spec (BDD containment), which
// is a flow invariant rather than a pass. `SynthesisOptions::passes`
// ("--passes" in the benches) rebuilds the pipeline from a spec string;
// "decompose,simplify,pack" reproduces the pre-pipeline flow bit-exactly.
//
// The option presets at the bottom configure the flows compared in the
// paper's tables: mulopII (no DC exploitation), mulop-dc, and the ablations.
#pragma once

#include <cstdint>
#include <string>

#include "circuits/circuits.h"
#include "core/budget.h"
#include "decomp/decompose.h"
#include "isf/isf.h"
#include "map/clb.h"
#include "net/lutnet.h"
#include "net/passmgr.h"
#include "obs/obs.h"

namespace mfd {

struct SynthesisOptions {
  DecomposeOptions decomp;
  /// Exact BDD check of the network against the spec after synthesis.
  bool verify = true;
  /// When decomp.max_bound_extra > 0, also run the flow with in-budget
  /// bound sets only and keep the better network. Oversized bound sets help
  /// dramatically on mux-structured functions and can hurt badly on others;
  /// no static estimate separates the two reliably, so we measure.
  bool portfolio_bound_extra = true;
  /// Resource budget for the whole run (zero fields = unlimited). Tripping
  /// it never fails the run: the decomposition drops to the degradation
  /// ladder's structural floor (core/budget.h) and the result records where.
  ResourceBudget budget;
  /// Pass pipeline spec, e.g. "decompose,simplify,odc_resubst,pack". Empty
  /// selects the default pipeline (core/passes.h); unknown names throw
  /// mfd::Error at run().
  std::string passes;
};

struct SynthesisResult {
  net::LutNetwork network;
  DecomposeStats stats;
  map::ClbResult clb_greedy;    ///< mulop-dc packing
  map::ClbResult clb_matching;  ///< mulop-dcII packing
  bool verified = false;        ///< true iff verification ran and passed
  /// Which degradation-ladder rung the run finished on, its downgrade event
  /// (at most one), and the rung each primary output was synthesized at.
  DegradationReport degradation;
  /// Pass-by-pass trail of the pipeline (a skipped pass carries the
  /// skip_reason "degraded": an optional pass dropped by the ladder).
  std::vector<net::PassStats> passes;
  double seconds = 0.0;
  /// Phase tree + counters + gauges of this run (see docs/OBSERVABILITY.md).
  /// `run` resets the calling thread's registry at entry, so the report
  /// covers exactly this synthesis (a portfolio entry run on a second thread
  /// merges its report in); BDD gauges are manager-lifetime totals.
  obs::Report report;
};

class Synthesizer {
 public:
  explicit Synthesizer(SynthesisOptions opts = {}) : opts_(opts) {}

  const SynthesisOptions& options() const { return opts_; }

  /// Synthesizes a multi-output ISF; `pi_vars[i]` is the manager variable of
  /// primary input i. `circuit` names the run in errors and reports (a
  /// VerifyError from a long table sweep is attributable to its circuit).
  /// Throws mfd::Error on a spec with no outputs.
  SynthesisResult run(std::vector<Isf> spec, const std::vector<int>& pi_vars,
                      const std::string& circuit = {}) const;

  /// Synthesizes a completely specified benchmark function.
  SynthesisResult run(const circuits::Benchmark& bench) const;

 private:
  SynthesisOptions opts_;
};

/// The paper's flows as option presets.
SynthesisOptions preset_mulop_dc(int lut_inputs = 5);   ///< full DC exploitation
SynthesisOptions preset_mulopII(int lut_inputs = 5);    ///< all DCs assigned 0
SynthesisOptions preset_noshare_nodc(int lut_inputs = 5);  ///< per-output, no DC

}  // namespace mfd
