// Concrete flow passes and the pipeline builder.
//
// The pass *interface* lives in net/passmgr.h with the IR; this header holds
// the passes that need the upper layers (decomposition, CLB packing) plus
// the registry that turns a `--passes` spec into a runnable PassPipeline.
#pragma once

#include <string>

#include "net/passmgr.h"

namespace mfd {

struct SynthesisOptions;

/// Runs the recursive decomposition portfolio and replaces the network with
/// the winning result. Requires ctx.spec, ctx.pi_vars, ctx.options and
/// ctx.governor; fills ctx.stats with the winner's statistics.
class DecomposePass final : public net::Pass {
 public:
  const char* name() const override { return "decompose"; }
  bool run(net::LutNetwork& net, net::PassContext& ctx) override;
};

/// XC3000 CLB packing, greedy and matching. Analysis-only: it fills
/// ctx.clb_greedy / ctx.clb_matching and never rewrites the network.
class PackPass final : public net::Pass {
 public:
  const char* name() const override { return "pack"; }
  bool run(net::LutNetwork& net, net::PassContext& ctx) override;
};

/// The default pipeline: "decompose,simplify,odc_resubst,pack".
std::string default_pipeline_spec();

/// Builds a pipeline from `spec` (empty string = default pipeline),
/// resolving each name against the pass registry (decompose, simplify,
/// odc_resubst, pack). Throws mfd::Error on an unknown pass name, a
/// malformed spec, or a LUT size whose tables the kernel cannot hold:
/// decomp.lut_inputs < 2, or lut_inputs + max(0, max_bound_extra) (the
/// widest decomposition function) above tt::kMaxVars.
net::PassPipeline build_pipeline(const std::string& spec,
                                 const SynthesisOptions& opts);

}  // namespace mfd
