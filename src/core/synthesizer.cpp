#include "core/synthesizer.h"

#include <chrono>
#include <new>
#include <utility>
#include <vector>

#include "core/errors.h"
#include "core/passes.h"
#include "net/simulate.h"

namespace mfd {

SynthesisResult Synthesizer::run(std::vector<Isf> spec,
                                 const std::vector<int>& pi_vars,
                                 const std::string& circuit) const {
  if (spec.empty())
    throw Error("specification has no outputs" +
                (circuit.empty() ? std::string() : " (circuit=" + circuit + ")"));
  const auto start = std::chrono::steady_clock::now();
  // One run == one observability epoch: the report in the result covers
  // exactly this synthesis (including both portfolio entries).
  obs::reset();
  obs::ScopedPhase phase("synthesize");
  SynthesisResult result;

  // One governor covers the whole run (both portfolio entries, verification,
  // packing); every BDD mk on this thread charges it while it is installed.
  // The decompose pass moves a portfolio entry to a second thread only when
  // this governor has no budget (core/passes.cpp).
  ResourceGovernor gov(opts_.budget);
  ResourceGovernor::Scope gov_scope(gov);

  bdd::Manager& mgr = *spec.front().manager();
  const std::vector<Isf> original = spec;  // keep for verification
  spec.clear();

  // The flow is a pass pipeline over the LUT-network IR; an invalid
  // `--passes` spec throws mfd::Error here, before any work.
  const net::PassPipeline pipeline = build_pipeline(opts_.passes, opts_);

  net::PassContext ctx;
  ctx.manager = &mgr;
  ctx.spec = &original;
  ctx.pi_vars = &pi_vars;
  ctx.options = &opts_;
  ctx.circuit = circuit;
  ctx.stats = &result.stats;
  ctx.clb_greedy = &result.clb_greedy;
  ctx.clb_matching = &result.clb_matching;

  // An allocation fault that the ladder cannot absorb (one injected into its
  // suspended floor, or into verification below) surfaces typed, so callers
  // never see a raw bad_alloc.
  auto allocation_failure = [&circuit](const char* where) {
    return BddError(std::string("allocation failure ") + where +
                    (circuit.empty() ? std::string() : " (circuit=" + circuit + ")"));
  };
  try {
    result.passes = pipeline.run(result.network, ctx);
  } catch (const std::bad_alloc&) {
    throw allocation_failure("escaped the degradation ladder");
  }

  // The per-output levels of the *winning* network (the governor's snapshot
  // tracks the most recent decompose call, which may be the discarded one).
  gov.set_per_output_levels(result.stats.output_degrade_level);

  if (opts_.verify) {
    // Verification is exactness, not optimization: it runs with budget
    // enforcement suspended so a tight deadline can never abort it. It runs
    // after the whole pipeline, so it checks exactly the network the caller
    // receives — every pass, odc_resubst included, is covered.
    ResourceGovernor::SuspendScope suspend(gov);
    obs::ScopedPhase verify_phase("verify");
    std::string error;
    bool exact = false;
    try {
      exact = net::check_exact(result.network, original, pi_vars, &error);
    } catch (const std::bad_alloc&) {
      throw allocation_failure("during verification");
    }
    if (!exact) throw VerifyError(circuit, "verify", gov.degrade_level(), error);
    result.verified = true;
  }

  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  result.degradation = gov.report();

  obs::gauge_set("net.luts", result.network.count_luts());
  obs::gauge_set("net.gates", result.network.count_gates());
  obs::gauge_set("net.depth", result.network.depth());
  obs::gauge_set("synth.seconds", result.seconds);
  mgr.publish_stats();
  result.report = obs::collect();
  return result;
}

SynthesisResult Synthesizer::run(const circuits::Benchmark& bench) const {
  std::vector<Isf> spec;
  spec.reserve(bench.outputs.size());
  for (const bdd::Bdd& f : bench.outputs) spec.push_back(Isf::completely_specified(f));
  std::vector<int> pi_vars(static_cast<std::size_t>(bench.num_inputs));
  for (int i = 0; i < bench.num_inputs; ++i) pi_vars[static_cast<std::size_t>(i)] = i;
  return run(std::move(spec), pi_vars, bench.name);
}

SynthesisOptions preset_mulop_dc(int lut_inputs) {
  SynthesisOptions opts;
  opts.decomp.lut_inputs = lut_inputs;
  return opts;
}

SynthesisOptions preset_mulopII(int lut_inputs) {
  SynthesisOptions opts;
  opts.decomp.lut_inputs = lut_inputs;
  opts.decomp.exploit_dc = false;
  return opts;
}

SynthesisOptions preset_noshare_nodc(int lut_inputs) {
  SynthesisOptions opts;
  opts.decomp.lut_inputs = lut_inputs;
  opts.decomp.exploit_dc = false;
  opts.decomp.share_functions = false;
  return opts;
}

}  // namespace mfd
