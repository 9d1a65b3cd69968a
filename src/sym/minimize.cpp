#include "sym/minimize.h"

#include "sym/symmetrize.h"
#include "sym/symmetry.h"

namespace mfd {

MinimizeResult minimize_robdd_size(const Isf& f, std::vector<int> vars) {
  bdd::Manager& m = *f.manager();
  if (vars.empty()) vars = f.support();

  MinimizeResult result;
  result.size_before = m.dag_size(f.extension_zero().id());

  std::vector<OutputView> views = output_views({f});
  const SymmetrizeStats stats = symmetrize(views, vars);
  result.symmetries_created = stats.ne_applied + stats.e_applied;

  // Candidates: the symmetrized extension (spending remaining DCs via
  // restrict), and the two direct extensions of the original — creating a
  // symmetry is not always worth its care commitments, so keep the best.
  const Isf& symmetrized = views[0].isf();
  const bdd::Bdd candidates[] = {
      symmetrized.is_completely_specified() ? symmetrized.on()
                                            : symmetrized.extension_small(),
      f.extension_small(),
      f.extension_zero(),
  };
  result.function = candidates[0];
  for (const bdd::Bdd& cand : candidates)
    if (m.dag_size(cand.id()) < m.dag_size(result.function.id()))
      result.function = cand;

  // Order the result well: symmetric groups sifted as blocks. The gate
  // counts what the sift would reorder: the live functions, after a
  // collection of whatever garbage symmetrize or the caller left behind.
  m.garbage_collect();
  if (!vars.empty() && m.live_node_count() < 200000) {
    std::vector<OutputView> done = output_views({Isf::completely_specified(result.function)});
    m.sift_symmetric(symmetry_groups(done, vars));
  }
  result.size_after = m.dag_size(result.function.id());
  return result;
}

}  // namespace mfd
