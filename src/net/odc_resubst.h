// Network-level don't-care resubstitution over the LUT IR.
//
// For each live LUT t the pass computes, exactly over a bounded fanout
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
// Signal functions are global functions of the primary inputs: packed
// truth tables (src/tt) when the network has at most tt::kMaxVars primary
// inputs, BDDs over ctx.pi_vars in the shared manager above that. The two
// hold the same functions, so both make the same rewrites; the input count
// alone selects the path (counters pass.odc.tt_runs / pass.odc.bdd_runs).
//
// The don't cares turn t's truth table back into an ISF, an (on, care) pair
// of tt::TruthTables over t's fanins, which is re-minimized with the same
// machinery the decomposition flow uses: fanins whose cofactors are
// compatible are dropped (word-level tt cofactors), and the surviving table
// is completed by the Coudert-Madre restrict (Isf::extension_small) on a
// local manager (tables to BDDs and back through src/tt): one per run, made
// by the first refit and collected after each, so every refit starts from
// an empty manager. A rewrite is applied only when it strictly removes
// fanins (or collapses the LUT to a constant); each sweep ends with
// simplify()+collapse(k) and sweeps iterate to a fixpoint.
//
// The pass is *optional* in the pipeline sense: it buys LUTs, never
// correctness, so the pipeline drops it once the degradation ladder is off
// the full level. It checks the governor's deadline at every node, and its
// BDD work (the BDD path's signals, the refits' local manager) charges the
// installed governor through the mk hot path.
// It stops gracefully (keeping the valid network it has) when a budget
// trips mid-sweep.
#pragma once

#include "net/passmgr.h"

namespace mfd::net {

class OdcResubstPass final : public Pass {
 public:
  /// `lut_inputs` is the fanin bound of the post-sweep collapse (the flow's
  /// LUT size).
  explicit OdcResubstPass(int lut_inputs) : lut_inputs_(lut_inputs) {}
  const char* name() const override { return "odc_resubst"; }
  bool optional() const override { return true; }
  bool run(LutNetwork& net, PassContext& ctx) override;

 private:
  int lut_inputs_;
};

}  // namespace mfd::net
