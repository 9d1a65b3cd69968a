#include "sym/symmetrize.h"

#include <algorithm>
#include <tuple>

#include "core/budget.h"
#include "core/faultinject.h"
#include "obs/obs.h"

namespace mfd {
namespace {

struct Candidate {
  int a = -1, b = -1;
  SymmetryKind kind = SymmetryKind::kNonequivalence;
  std::vector<int> applicable;  // outputs that can newly gain the symmetry
  int already = 0;              // outputs that have it already
  int blocked = 0;              // outputs where it is unachievable
};

/// Lexicographic value of a candidate:
/// (no output blocked) > (NE over E) > more outputs gaining or having it.
bool better(const Candidate& x, const Candidate& y) {
  const auto key = [](const Candidate& c) {
    return std::tuple(c.blocked == 0,
                      c.kind == SymmetryKind::kNonequivalence,
                      static_cast<int>(c.applicable.size()) + c.already,
                      -c.a, -c.b);  // deterministic tie break
  };
  return key(x) > key(y);
}

}  // namespace

SymmetrizeStats symmetrize(std::vector<OutputView>& views, const std::vector<int>& vars,
                           const SymmetrizeOptions& opts) {
  SymmetrizeStats stats;
  if (fault::armed()) fault::point("sym.symmetrize");
  const int limit = opts.max_applications > 0
                        ? opts.max_applications
                        : 3 * static_cast<int>(vars.size()) + 8;

  std::vector<SymmetryKind> kinds;
  if (opts.enable_nonequivalence) kinds.push_back(SymmetryKind::kNonequivalence);
  if (opts.enable_equivalence) kinds.push_back(SymmetryKind::kEquivalence);

  // Each round performs one full pair scan, then applies a whole batch of
  // candidates with disjoint variable pairs (best first). Applying one pair
  // can invalidate another pair's achievability, so each application
  // re-checks symmetrizability on the current state; the full rescan at the
  // start of the next round picks up the remaining interactions. Batching
  // keeps the number of expensive scans proportional to the number of
  // "waves" instead of the number of applied pairs.
  // Symmetrization is a pure optimization (step 1 of the DC assignment), so
  // under an installed governor each round yields to an expired deadline:
  // the pairs applied so far stand, the remaining waves are abandoned.
  ResourceGovernor* gov = ResourceGovernor::current();
  int applied_total = 0;
  while (applied_total < limit) {
    if (gov != nullptr && gov->deadline_expired()) {
      obs::add("sym.symmetrize.rounds_abandoned");
      break;
    }
    std::vector<Candidate> candidates;
    for (std::size_t i = 0; i < vars.size(); ++i) {
      for (std::size_t j = i + 1; j < vars.size(); ++j) {
        for (const SymmetryKind kind : kinds) {
          Candidate c;
          c.a = vars[i];
          c.b = vars[j];
          c.kind = kind;
          for (int out = 0; out < static_cast<int>(views.size()); ++out) {
            OutputView& v = views[static_cast<std::size_t>(out)];
            if (v.is_symmetric(c.a, c.b, kind)) {
              ++c.already;
            } else if (v.symmetrizable(c.a, c.b, kind)) {
              c.applicable.push_back(out);
            } else {
              ++c.blocked;
            }
          }
          if (!c.applicable.empty()) candidates.push_back(std::move(c));
        }
      }
    }
    if (candidates.empty()) break;
    std::sort(candidates.begin(), candidates.end(), better);

    ++stats.rounds;
    bool applied_any = false;
    std::vector<bool> used(static_cast<std::size_t>(
                               1 + *std::max_element(vars.begin(), vars.end())),
                           false);
    for (const Candidate& c : candidates) {
      if (applied_total >= limit) break;
      if (used[static_cast<std::size_t>(c.a)] || used[static_cast<std::size_t>(c.b)])
        continue;
      bool applied_here = false;
      for (int out : c.applicable) {
        // Earlier batch members may have changed the function: re-verify.
        OutputView& v = views[static_cast<std::size_t>(out)];
        if (v.is_symmetric(c.a, c.b, c.kind)) continue;
        if (!v.symmetrizable(c.a, c.b, c.kind)) continue;
        v.reset(make_symmetric(v.isf(), c.a, c.b, c.kind));
        applied_here = true;
        if (c.kind == SymmetryKind::kNonequivalence)
          ++stats.ne_applied;
        else
          ++stats.e_applied;
      }
      if (applied_here) {
        used[static_cast<std::size_t>(c.a)] = used[static_cast<std::size_t>(c.b)] = true;
        applied_any = true;
        ++applied_total;
      }
    }
    if (!applied_any) break;
  }
  // Step-1 observability: how many pair symmetries the don't cares bought.
  obs::add("sym.symmetrize.calls");
  obs::add("sym.symmetrize.pairs_ne", static_cast<std::uint64_t>(stats.ne_applied));
  obs::add("sym.symmetrize.pairs_e", static_cast<std::uint64_t>(stats.e_applied));
  obs::add("sym.symmetrize.rounds", static_cast<std::uint64_t>(stats.rounds));
  publish_pair_tests(views);
  return stats;
}

}  // namespace mfd
