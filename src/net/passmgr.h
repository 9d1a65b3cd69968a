// Pass manager over the LUT-network IR.
//
// The synthesis flow is an ordered sequence of *passes*, each transforming
// (or analyzing) one `net::LutNetwork` in place. `core/synthesizer.cpp`
// drives the default pipeline
//
//   decompose -> simplify -> odc_resubst -> pack
//
// and rebuilds it from a user spec ("--passes decompose,simplify,pack").
// The contract every pass obeys:
//
//  * run(net, ctx) transforms `net` and returns true iff the network (or a
//    context output slot, for analysis passes) changed. A pass must leave
//    the network I/O-equivalent to its input *with respect to the
//    specification ISFs in the context* — exact verification runs after the
//    whole pipeline and a pass that breaks admissibility fails the flow.
//  * optional() passes are *droppable*: the pipeline skips them once the
//    degradation ladder has moved off the full level or the deadline has
//    expired — they buy quality, never correctness (docs/ROBUSTNESS.md).
//  * Every pass runs under an obs phase named `pass.<name>` and its
//    before/after LUT statistics are recorded in the PassStats trail the
//    pipeline returns (surfaced as `--stats-json` "passes" rows).
//
// Invalidation: the IR carries no analysis caches — every pass recomputes
// what it needs from the network itself (live sets, fanout, signal BDDs),
// so there is nothing to invalidate between passes beyond the network.
// Passes that keep derived state internally must treat every run() call as
// operating on an unknown network.
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace mfd {
class Isf;
class ResourceGovernor;
struct DecomposeStats;
struct SynthesisOptions;
namespace bdd {
class Manager;
}
namespace map {
struct ClbResult;
}
}  // namespace mfd

namespace mfd::net {

class LutNetwork;
class Pass;

/// Everything a pass may read or write besides the network itself. The
/// Synthesizer owns the pointed-to objects; output slots (stats, clb_*) are
/// filled by the passes that produce them. All pointers except `governor`
/// and `manager` may be null when a pipeline runs outside the full flow
/// (tests driving a single pass) — passes must check what they use.
struct PassContext {
  bdd::Manager* manager = nullptr;
  /// The specification the network must remain an admissible extension of.
  const std::vector<Isf>* spec = nullptr;
  /// pi_vars[i] = manager variable standing for network primary input i.
  const std::vector<int>* pi_vars = nullptr;
  const SynthesisOptions* options = nullptr;
  /// Never null while the Synthesizer drives the pipeline (it installs one
  /// even for unbudgeted runs); may be null in tests. Must be the installed
  /// governor (`ResourceGovernor::current()`): the passes read its deadline
  /// and ladder here, while every BDD `mk` charges the installed one.
  ResourceGovernor* governor = nullptr;
  std::string circuit;  ///< run name (may be empty)

  // ---- output slots ------------------------------------------------------
  DecomposeStats* stats = nullptr;       ///< filled by the decompose pass
  map::ClbResult* clb_greedy = nullptr;  ///< filled by the pack pass
  map::ClbResult* clb_matching = nullptr;
};

/// One pipeline stage over the LUT-network IR (contract in the header
/// comment above).
class Pass {
 public:
  virtual ~Pass() = default;
  /// Stable identifier; also the spec token that names this pass.
  virtual const char* name() const = 0;
  /// Transforms/analyzes `net`; returns true iff anything changed.
  virtual bool run(LutNetwork& net, PassContext& ctx) = 0;
  /// Droppable by the degradation ladder (quality-only passes).
  virtual bool optional() const { return false; }
};

/// Per-pass record of one pipeline execution.
struct PassStats {
  std::string name;
  bool ran = false;        ///< false when skipped (see `skip_reason`)
  bool changed = false;    ///< run() return value
  std::string skip_reason; ///< "degraded" when !ran
  int luts_before = 0;     ///< live LUTs entering the pass
  int luts_after = 0;      ///< live LUTs leaving the pass
  double seconds = 0.0;
};

/// An ordered, owned sequence of passes.
class PassPipeline {
 public:
  PassPipeline() = default;
  PassPipeline(PassPipeline&&) = default;
  PassPipeline& operator=(PassPipeline&&) = default;

  void add(std::unique_ptr<Pass> pass);
  const std::vector<std::unique_ptr<Pass>>& passes() const { return passes_; }
  /// Comma-joined pass names (the canonical spec of this pipeline).
  std::string spec() const;

  /// Runs every pass in order. Optional passes are skipped once
  /// ctx.governor reports degradation or an expired deadline. Each executed
  /// pass runs under an obs phase `pass.<name>`.
  std::vector<PassStats> run(LutNetwork& net, PassContext& ctx) const;

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

/// Splits a `--passes` spec ("decompose,simplify,pack") into trimmed,
/// non-empty pass names. Throws mfd::Error on an empty spec or empty name;
/// name *validity* is checked by the pipeline builder (core/passes.h),
/// which knows the registry.
std::vector<std::string> parse_pipeline_spec(const std::string& spec);

/// A pass wrapping LutNetwork::simplify() + collapse(k): structural
/// cleanup + single-fanout repacking. Lives here (not core/passes) because
/// it needs nothing beyond the IR.
class SimplifyPass final : public Pass {
 public:
  /// `lut_inputs` is the fanin bound of the collapse (the flow's LUT size).
  explicit SimplifyPass(int lut_inputs) : lut_inputs_(lut_inputs) {}
  const char* name() const override { return "simplify"; }
  bool run(LutNetwork& net, PassContext& ctx) override;

 private:
  int lut_inputs_;
};

}  // namespace mfd::net
