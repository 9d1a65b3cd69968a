#include "net/passmgr.h"

#include <chrono>
#include <utility>

#include "core/budget.h"
#include "core/errors.h"
#include "net/lutnet.h"
#include "obs/obs.h"

namespace mfd::net {

void PassPipeline::add(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
}

std::string PassPipeline::spec() const {
  std::string s;
  for (const auto& p : passes_) {
    if (!s.empty()) s += ',';
    s += p->name();
  }
  return s;
}

std::vector<PassStats> PassPipeline::run(LutNetwork& net, PassContext& ctx) const {
  std::vector<PassStats> trail;
  trail.reserve(passes_.size());
  for (const std::unique_ptr<Pass>& p : passes_) {
    Pass& pass = *p;
    PassStats st;
    st.name = pass.name();
    st.luts_before = st.luts_after = net.count_luts();

    if (pass.optional() && ctx.governor != nullptr &&
        (ctx.governor->report().degraded() || ctx.governor->deadline_expired())) {
      // Droppable quality pass under a stressed run: the ladder already
      // traded optimization for completion, so don't spend more effort.
      st.skip_reason = "degraded";
      obs::add("passmgr.optional_dropped");
      trail.push_back(std::move(st));
      continue;
    }

    const auto start = std::chrono::steady_clock::now();
    {
      obs::ScopedPhase phase(std::string("pass.") + pass.name());
      st.changed = pass.run(net, ctx);
    }
    st.ran = true;
    st.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    st.luts_after = net.count_luts();
    obs::add("passmgr.passes_run");
    trail.push_back(std::move(st));
  }
  return trail;
}

std::vector<std::string> parse_pipeline_spec(const std::string& spec) {
  std::vector<std::string> names;
  std::string cur;
  auto flush = [&] {
    // Trim surrounding whitespace.
    std::size_t b = 0, e = cur.size();
    while (b < e && (cur[b] == ' ' || cur[b] == '\t')) ++b;
    while (e > b && (cur[e - 1] == ' ' || cur[e - 1] == '\t')) --e;
    if (b == e)
      throw Error("pipeline spec '" + spec + "': empty pass name");
    names.push_back(cur.substr(b, e - b));
    cur.clear();
  };
  for (char c : spec) {
    if (c == ',') {
      flush();
    } else {
      cur += c;
    }
  }
  flush();  // also rejects a trailing comma / empty spec
  return names;
}

bool SimplifyPass::run(LutNetwork& net, PassContext& /*ctx*/) {
  int removed = net.simplify();
  removed += net.collapse(lut_inputs_);
  obs::add("pass.simplify.luts_removed", static_cast<std::uint64_t>(
                                             removed > 0 ? removed : 0));
  return removed != 0;
}

}  // namespace mfd::net
