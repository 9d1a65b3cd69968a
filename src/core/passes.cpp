#include "core/passes.h"

#include <algorithm>
#include <cstdlib>  // defines __GLIBC__ on glibc
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "bdd/bdd.h"
#include "cache/cache.h"
#include "core/budget.h"
#include "core/errors.h"
#include "core/synthesizer.h"
#include "decomp/decompose.h"
#include "map/clb.h"
#include "net/lutnet.h"
#include "net/odc_resubst.h"
#include "obs/obs.h"
#include "tt/tt.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace mfd {

namespace {

/// `f` rebuilt in `to`, whose order agrees with `from`'s; `memo` maps each
/// regular node of `from` copied so far to its copy.
bdd::Edge copy_edge(const bdd::Manager& from, bdd::Edge f, bdd::Manager& to,
                    std::unordered_map<bdd::NodeIndex, bdd::Edge>& memo) {
  if (from.is_terminal(f)) return f;
  const bdd::Edge r = f.regular();
  auto it = memo.find(r.index());
  if (it == memo.end()) {
    const bdd::Edge lo = copy_edge(from, from.node_lo(r), to, memo);
    const bdd::Edge hi = copy_edge(from, from.node_hi(r), to, memo);
    it = memo.emplace(r.index(), to.mk(static_cast<int>(from.node_var(r)), lo, hi)).first;
  }
  return it->second ^ f.is_complemented();
}

/// Hands the free pages of every malloc arena back to the system (glibc
/// only). A thread's allocations come from an arena of its own, which keeps
/// the pages they free; without this, each concurrent flow's worker arena
/// stays resident through the flows after it (C499's conservative entry
/// left about 5 MiB).
void release_free_pages() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// The portfolio's conservative entry, run on a thread of its own. A BDD
/// manager serves one thread, so the entry decomposes a copy of the spec in
/// a fresh manager, made before the flow thread's entry reorders the flow
/// manager. The copy keeps the flow manager's variables and order: the
/// entry starts from the functions, variable indices and order it would
/// start from in the flow manager. The thread has its own governor
/// (unlimited, like the flow's) and obs registry.
class ConservativeEntry {
 public:
  ConservativeEntry(const std::vector<Isf>& spec, const std::vector<int>& pi_vars,
                    const DecomposeOptions& opts)
      : mgr_(spec.front().manager()->num_vars()) {
    const bdd::Manager& from = *spec.front().manager();
    mgr_.set_order(from.current_order());
    std::vector<Isf> copy;
    copy.reserve(spec.size());
    {
      bdd::Manager::AutoGcPause pause(mgr_);  // the edges are unreferenced
      std::unordered_map<bdd::NodeIndex, bdd::Edge> memo;
      for (const Isf& f : spec) {
        const bdd::Edge on = copy_edge(from, f.on().id(), mgr_, memo);
        const bdd::Edge care = copy_edge(from, f.care().id(), mgr_, memo);
        copy.emplace_back(mgr_.wrap(on), mgr_.wrap(care));
      }
    }
    thread_ = std::jthread([this, copy = std::move(copy), pi_vars, opts]() mutable {
      try {
        ResourceGovernor gov;
        ResourceGovernor::Scope scope(gov);
        net_ = decompose(std::move(copy), pi_vars, opts, &stats_);
        degradation_ = gov.report();
        mgr_.publish_stats("bdd.conservative");
        report_ = obs::collect();
      } catch (...) {
        error_ = std::current_exception();
      }
    });
  }
  // The thread holds `this`.
  ConservativeEntry(const ConservativeEntry&) = delete;
  ConservativeEntry& operator=(const ConservativeEntry&) = delete;

  /// Waits for the entry, folds its report into this thread's registry and
  /// its degradation into `gov` (when there is one), rethrows what it threw,
  /// and returns its network.
  net::LutNetwork join(ResourceGovernor* gov, DecomposeStats* stats) {
    thread_.join();
    if (error_) std::rethrow_exception(error_);
    obs::merge(report_);
    if (gov != nullptr) gov->replay(degradation_);
    *stats = std::move(stats_);
    return std::move(net_);
  }

 private:
  bdd::Manager mgr_;
  net::LutNetwork net_;
  DecomposeStats stats_;
  DegradationReport degradation_;
  obs::Report report_;
  std::exception_ptr error_;
  std::jthread thread_;  // last: its destructor joins before the members it writes die
};

}  // namespace

bool DecomposePass::run(net::LutNetwork& net, net::PassContext& ctx) {
  const SynthesisOptions& opts = *ctx.options;
  ResourceGovernor* gov = ResourceGovernor::current();
  const bool portfolio = opts.decomp.max_bound_extra > 0 && opts.portfolio_bound_extra;
  DecomposeOptions conservative = opts.decomp;
  conservative.max_bound_extra = 0;

  // The two entries need nothing from each other, so on a spec wider than
  // the truth-table kernel they run at the same time. Only while memoization
  // is safe: under a budget, a deadline or an armed fault, what each entry
  // does depends on when something trips, and the serial order below (with
  // its skip) is the contract. Narrower specs decompose in milliseconds and
  // stay serial.
  std::optional<ConservativeEntry> concurrent;
  if (portfolio && cache::memo_safe(gov) && !ctx.spec->empty() &&
      static_cast<int>(ctx.pi_vars->size()) > tt::kMaxVars)
    concurrent.emplace(*ctx.spec, *ctx.pi_vars, conservative);

  DecomposeStats stats;
  net = decompose(*ctx.spec, *ctx.pi_vars, opts.decomp, &stats);

  // The portfolio's second entry is pure optimization: skip it (or discard
  // it, when it ran concurrently) once the budget forced degradation or the
  // deadline has passed — it would only walk the ladder again and discard
  // the work.
  const bool stressed =
      gov != nullptr && (gov->report().degraded() || gov->deadline_expired());
  if (portfolio && !stressed) {
    DecomposeStats alt_stats;
    net::LutNetwork alt = concurrent
                              ? concurrent->join(gov, &alt_stats)
                              : decompose(*ctx.spec, *ctx.pi_vars, conservative, &alt_stats);
    obs::add("synth.portfolio_runs");
    if (alt.count_luts() < net.count_luts()) {
      net = std::move(alt);
      stats = alt_stats;
      obs::add("synth.portfolio_conservative_won");
    }
  } else if (portfolio) {
    obs::add("synth.portfolio_skipped_budget");
  }
  if (concurrent) {
    concurrent.reset();
    release_free_pages();
  }

  if (ctx.stats != nullptr) *ctx.stats = std::move(stats);
  return true;
}

bool PackPass::run(net::LutNetwork& net, net::PassContext& ctx) {
  obs::ScopedPhase pack_phase("pack");
  if (ctx.clb_greedy == nullptr && ctx.clb_matching == nullptr) return false;
  const BitGraph merge = map::merge_graph(net);
  if (ctx.clb_greedy != nullptr) *ctx.clb_greedy = map::pack_greedy(merge);
  if (ctx.clb_matching != nullptr) *ctx.clb_matching = map::pack_matching(merge);
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
