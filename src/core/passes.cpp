#include "core/passes.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/budget.h"
#include "core/errors.h"
#include "core/synthesizer.h"
#include "decomp/decompose.h"
#include "map/clb.h"
#include "net/lutnet.h"
#include "net/odc_resubst.h"
#include "obs/obs.h"
#include "tt/tt.h"

namespace mfd {

bool DecomposePass::run(net::LutNetwork& net, net::PassContext& ctx) {
  const SynthesisOptions& opts = *ctx.options;
  ResourceGovernor& gov = *ctx.governor;
  DecomposeStats stats;
  net = decompose(*ctx.spec, *ctx.pi_vars, opts.decomp, &stats);

  // The portfolio's second entry is pure optimization: skip it when the
  // budget already forced degradation or the deadline has passed — it would
  // only walk the ladder again and discard the work.
  if (opts.decomp.max_bound_extra > 0 && opts.portfolio_bound_extra &&
      !gov.report().degraded() && !gov.deadline_expired()) {
    DecomposeOptions conservative = opts.decomp;
    conservative.max_bound_extra = 0;
    DecomposeStats alt_stats;
    net::LutNetwork alt = decompose(*ctx.spec, *ctx.pi_vars, conservative, &alt_stats);
    obs::add("synth.portfolio_runs");
    if (alt.count_luts() < net.count_luts()) {
      net = std::move(alt);
      stats = alt_stats;
      obs::add("synth.portfolio_conservative_won");
    }
  } else if (opts.decomp.max_bound_extra > 0 && opts.portfolio_bound_extra) {
    obs::add("synth.portfolio_skipped_budget");
  }

  if (ctx.stats != nullptr) *ctx.stats = std::move(stats);
  return true;
}

bool PackPass::run(net::LutNetwork& net, net::PassContext& ctx) {
  obs::ScopedPhase pack_phase("pack");
  if (ctx.clb_greedy != nullptr)
    *ctx.clb_greedy = map::pack_greedy(net);
  if (ctx.clb_matching != nullptr)
    *ctx.clb_matching = map::pack_matching(net);
  return false;  // analysis only, the network is untouched
}

std::string default_pipeline_spec() { return "decompose,simplify,odc_resubst,pack"; }

net::PassPipeline build_pipeline(const std::string& spec,
                                 const SynthesisOptions& opts) {
  const int k = opts.decomp.lut_inputs;
  if (k < 2 || k + std::max(0, opts.decomp.max_bound_extra) > tt::kMaxVars)
    throw Error("LUT size " + std::to_string(k) + " with max_bound_extra " +
                std::to_string(opts.decomp.max_bound_extra) +
                " is out of range: need 2 <= k and k + max_bound_extra <= " +
                std::to_string(tt::kMaxVars));
  const std::string& s = spec.empty() ? default_pipeline_spec() : spec;
  net::PassPipeline pipeline;
  for (const std::string& name : net::parse_pipeline_spec(s)) {
    if (name == "decompose") {
      pipeline.add(std::make_unique<DecomposePass>());
    } else if (name == "simplify") {
      pipeline.add(std::make_unique<net::SimplifyPass>(opts.decomp.lut_inputs));
    } else if (name == "odc_resubst") {
      pipeline.add(std::make_unique<net::OdcResubstPass>(opts.decomp.lut_inputs));
    } else if (name == "pack") {
      pipeline.add(std::make_unique<PackPass>());
    } else {
      throw Error("unknown pass '" + name + "' in pipeline spec '" + s +
                  "' (known: decompose, simplify, odc_resubst, pack)");
    }
  }
  return pipeline;
}

}  // namespace mfd
