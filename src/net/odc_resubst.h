// Network-level don't-care resubstitution over the LUT IR.
//
// For each live LUT t the pass computes, BDD-exactly over a bounded fanout
// window, the input patterns under which t's value is irrelevant:
//
//  * satisfiability don't cares — fanin patterns no primary-input assignment
//    can produce (the fanins are correlated functions, not free variables);
//  * observability don't cares — patterns whose producing assignments flip
//    no window observable (a window boundary signal or a primary output)
//    regardless of t's value.
//
// Both are exact with respect to the network: every window-boundary signal
// is treated as directly observable, so a rewrite can never change any
// signal leaving the window, and SDC patterns never occur at all. The
// network's output *functions* are therefore preserved bit-exactly — the
// pass cannot weaken admissibility against the specification ISFs.
//
// The don't cares turn t's truth table back into an ISF, an (on, care) pair
// of tt::TruthTables over t's fanins, which is re-minimized with the same
// machinery the decomposition flow uses: fanins whose cofactors are
// compatible are dropped (word-level tt cofactors), and the surviving table
// is completed by the Coudert-Madre restrict (Isf::extension_small) on a
// throwaway local manager (tables to BDDs and back through src/tt). A rewrite is applied only when it strictly
// removes fanins (or collapses the LUT to a constant); each sweep ends with
// simplify()+collapse(k) and sweeps iterate to a fixpoint.
//
// The pass is *optional* in the pipeline sense: it buys LUTs, never
// correctness, so the pipeline drops it once the degradation ladder is off
// the full level. While running it charges the governor through the
// manager's mk hot path and stops gracefully (keeping the valid network it
// has) when a budget trips mid-sweep.
#pragma once

#include "net/passmgr.h"

namespace mfd::net {

struct OdcOptions {
  /// Fanout-cone BFS depth defining the observability window. Larger windows
  /// find more don't cares but cost more BDD work per node.
  int window_depth = 3;
  /// Nodes whose window holds more LUTs than this are skipped (the exact
  /// window computation is quadratic-ish in cone size).
  int max_cone_luts = 64;
  /// Sweep fixpoint bound (each sweep visits every live LUT once).
  int max_iters = 4;
  /// Fanin bound for the post-sweep collapse (the flow's LUT size).
  int lut_inputs = 5;
};

class OdcResubstPass final : public Pass {
 public:
  explicit OdcResubstPass(OdcOptions opts = {}) : opts_(opts) {}
  const char* name() const override { return "odc_resubst"; }
  bool optional() const override { return true; }
  bool run(LutNetwork& net, PassContext& ctx) override;

 private:
  OdcOptions opts_;
};

}  // namespace mfd::net
