#include "verify/shrink.h"

#include <algorithm>

namespace mfd::verify {
namespace {

/// Spec with output `o` removed.
TableSpec drop_output(const TableSpec& spec, std::size_t o) {
  TableSpec reduced = spec;
  reduced.outputs.erase(reduced.outputs.begin() + static_cast<std::ptrdiff_t>(o));
  return reduced;
}

/// Spec cofactored at input `var` = 0: the remaining inputs renumber down.
TableSpec drop_variable(const TableSpec& spec, int var) {
  TableSpec reduced;
  reduced.num_inputs = spec.num_inputs - 1;
  for (const TableSpec::Output& out : spec.outputs)
    reduced.outputs.push_back({out.on.cofactor(var, false), out.care.cofactor(var, false)});
  return reduced;
}

}  // namespace

ShrinkResult shrink_spec(const TableSpec& failing, const FailPredicate& still_fails,
                         const ShrinkOptions& opts) {
  ShrinkResult result;
  result.spec = failing;

  auto check = [&](const TableSpec& candidate) {
    if (result.checks_run >= opts.max_checks) return false;
    ++result.checks_run;
    return still_fails(candidate);
  };

  bool progress = true;
  while (progress && result.checks_run < opts.max_checks) {
    progress = false;
    ++result.rounds;

    // Stage 1: drop outputs, last first (later outputs are more often the
    // generator's duplicates).
    for (std::size_t o = result.spec.outputs.size(); o-- > 0;) {
      if (result.spec.outputs.size() <= 1) break;
      const TableSpec candidate = drop_output(result.spec, o);
      if (check(candidate)) {
        result.spec = candidate;
        progress = true;
      }
    }

    // Stage 2: drop variables (cofactor at 0).
    for (int v = result.spec.num_inputs; v-- > 0;) {
      if (result.spec.num_inputs <= 1) break;
      const TableSpec candidate = drop_variable(result.spec, v);
      if (check(candidate)) {
        result.spec = candidate;
        progress = true;
      }
    }

    // Stage 3: flip DC cells to cares, chunked ddmin-style. A DC flipped to
    // a care constrains the flow *more*; if the failure survives, the
    // reproducer depends on one fewer degree of freedom. Try care=0 first
    // (off), then care=1.
    for (std::size_t o = 0; o < result.spec.outputs.size(); ++o) {
      std::vector<std::size_t> dc_cells;
      for (std::size_t mt = 0; mt < result.spec.table_size(); ++mt)
        if (!result.spec.outputs[o].care[mt]) dc_cells.push_back(mt);
      std::size_t chunk = (dc_cells.size() + 1) / 2;
      while (chunk >= 1 && result.checks_run < opts.max_checks) {
        bool flipped_any = false;
        for (std::size_t start = 0; start < dc_cells.size(); start += chunk) {
          const std::size_t end = std::min(start + chunk, dc_cells.size());
          for (const bool value : {false, true}) {
            TableSpec candidate = result.spec;
            TableSpec::Output& out = candidate.outputs[o];
            bool any = false;
            for (std::size_t i = start; i < end; ++i) {
              const std::size_t mt = dc_cells[i];
              if (out.care[mt]) continue;  // flipped earlier
              out.care.set(mt, true);
              out.on.set(mt, value);
              any = true;
            }
            if (!any) break;
            if (check(candidate)) {
              result.spec = candidate;
              progress = true;
              flipped_any = true;
              break;
            }
          }
        }
        if (chunk == 1) break;
        // Recurse to smaller chunks only while cells remain DC; once a whole
        // pass at this size flipped nothing, halve.
        chunk = flipped_any ? chunk : chunk / 2;
        if (flipped_any) {
          dc_cells.clear();
          for (std::size_t mt = 0; mt < result.spec.table_size(); ++mt)
            if (!result.spec.outputs[o].care[mt]) dc_cells.push_back(mt);
          chunk = std::min(chunk, (dc_cells.size() + 1) / 2);
          if (dc_cells.empty()) break;
        }
      }
    }
  }
  return result;
}

}  // namespace mfd::verify
