#include "verify/specgen.h"

#include <sstream>

#include "circuits/circuits.h"
#include "core/errors.h"
#include "util/rng.h"

namespace mfd::verify {
namespace {

/// Density modes for one output's don't-care plane (percent of minterms
/// that are don't-care). The skew is intentional: parser and assignment
/// bugs live at the extremes, not at 30%.
enum class DcMode { kComplete, kSparse, kBalanced, kHeavy, kAllDc };

DcMode pick_dc_mode(Rng& rng) {
  switch (rng.below(10)) {
    case 0:
    case 1: return DcMode::kComplete;
    case 2:
    case 3: return DcMode::kSparse;    // ~5% DC
    case 4:
    case 5: return DcMode::kBalanced;  // ~35% DC
    case 6:
    case 7:
    case 8: return DcMode::kHeavy;     // ~80% DC
    default: return DcMode::kAllDc;
  }
}

bool draw_dc(Rng& rng, DcMode mode) {
  switch (mode) {
    case DcMode::kComplete: return false;
    case DcMode::kSparse: return rng.chance(1, 20);
    case DcMode::kBalanced: return rng.chance(7, 20);
    case DcMode::kHeavy: return rng.chance(4, 5);
    case DcMode::kAllDc: return true;
  }
  return false;
}

}  // namespace

TableSpec generate_spec(std::uint64_t seed, const SpecGenOptions& opts) {
  if (opts.min_inputs < 0 || opts.min_inputs > opts.max_inputs ||
      opts.max_inputs > tt::kMaxVars || opts.min_outputs < 1 ||
      opts.min_outputs > opts.max_outputs)
    throw Error("generate_spec: need 0 <= min_inputs <= max_inputs <= " +
                std::to_string(tt::kMaxVars) + " and 1 <= min_outputs <= max_outputs");
  Rng rng(seed ^ 0xF02ED1A5u);
  TableSpec spec;
  // Skew input counts small: minimal reproducers and fast oracle runs both
  // live there, and a bug reachable at n=7 is almost always reachable at
  // n<=5. Draw twice and keep the min.
  const int lo_in = opts.min_inputs, hi_in = opts.max_inputs;
  spec.num_inputs = std::min(rng.range(lo_in, hi_in), rng.range(lo_in, hi_in));
  const int num_outputs =
      std::min(rng.range(opts.min_outputs, opts.max_outputs),
               rng.range(opts.min_outputs, opts.max_outputs));
  const int n = spec.num_inputs;

  for (int o = 0; o < num_outputs; ++o) {
    // Special shapes first: duplicate an earlier output (shared support is
    // where encoding-sharing code can confuse outputs), or a constant.
    if (o > 0 && rng.chance(1, 8)) {
      TableSpec::Output out =
          spec.outputs[static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(o)))];
      if (rng.flip()) out.on = out.care & ~out.on;  // complemented duplicate
      spec.outputs.push_back(std::move(out));
      continue;
    }
    if (rng.chance(1, 10)) {
      const bool value = rng.flip();
      spec.outputs.push_back({tt::TruthTable(n, value), tt::TruthTable(n, true)});
      continue;
    }

    // Optionally restrict this output's support to a strict subset of the
    // inputs: minterms that differ only in masked-out variables get the
    // same (on, care) entry.
    std::uint64_t support_mask = (std::uint64_t{1} << n) - 1;
    if (n >= 2 && rng.chance(1, 5)) {
      const int keep = rng.range(1, n - 1);
      std::vector<int> vars(static_cast<std::size_t>(n));
      for (int v = 0; v < n; ++v) vars[static_cast<std::size_t>(v)] = v;
      rng.shuffle(vars);
      support_mask = 0;
      for (int i = 0; i < keep; ++i)
        support_mask |= std::uint64_t{1} << vars[static_cast<std::size_t>(i)];
    }

    const DcMode mode = pick_dc_mode(rng);
    // On-plane skew: near-constant on-sets stress isop/cover corner cases.
    const std::uint32_t on_num = static_cast<std::uint32_t>(rng.range(1, 19));
    TableSpec::Output out{tt::TruthTable(n), tt::TruthTable(n)};
    for (std::uint64_t m = 0; m < spec.table_size(); ++m) {
      const std::uint64_t rep = m & support_mask;
      if (rep != m) {  // not the support representative: copy its entry
        out.on.set(m, out.on[rep]);
        out.care.set(m, out.care[rep]);
        continue;
      }
      if (draw_dc(rng, mode)) continue;  // don't-care: on=0, care=0
      out.care.set(m, true);
      out.on.set(m, rng.chance(on_num, 20));
    }
    spec.outputs.push_back(std::move(out));
  }
  return spec;
}

std::vector<Isf> to_isfs(const TableSpec& spec, bdd::Manager& m) {
  circuits::ensure_vars(m, spec.num_inputs);
  const auto var = [&m](int i) { return m.var(i); };
  std::vector<Isf> result;
  result.reserve(spec.outputs.size());
  for (const TableSpec::Output& out : spec.outputs) {
    bdd::Bdd on = tt::to_bdd(out.on, m, var);
    result.emplace_back(std::move(on), tt::to_bdd(out.care, m, var));
  }
  return result;
}

TableSpec from_isfs(const std::vector<Isf>& fns, int num_inputs) {
  TableSpec spec;
  spec.num_inputs = num_inputs;
  std::vector<int> vars;
  for (int i = 0; i < num_inputs; ++i) vars.push_back(i);
  for (const Isf& f : fns) {
    std::vector<tt::TruthTable> t = tt::from_bdd(*f.manager(), {f.on().id(), f.care().id()}, vars);
    spec.outputs.push_back({std::move(t[0]), std::move(t[1])});
  }
  return spec;
}

std::string describe(const TableSpec& spec) {
  std::size_t cells = 0, dc = 0;
  for (const TableSpec::Output& out : spec.outputs)
    for (std::size_t m = 0; m < spec.table_size(); ++m) {
      ++cells;
      if (!out.care[m]) ++dc;
    }
  std::ostringstream os;
  os << spec.num_inputs << "i/" << spec.outputs.size() << "o dc="
     << (cells == 0 ? 0 : (100 * dc) / cells) << "%";
  return os.str();
}

}  // namespace mfd::verify
