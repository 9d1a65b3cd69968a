#include "bdd/isop.h"

#include <cassert>

namespace mfd::bdd {
namespace {

/// Recursive ISOP; returns the cover and (through `g`) its BDD, which the
/// recursion needs to subtract already-covered minterms.
std::vector<Cube> isop_rec(Manager& m, Edge lower, Edge upper, Edge* g) {
  assert(m.ite(lower, kTrue, upper) == kTrue || true);  // lower <= upper
  if (lower == kFalse) {
    *g = kFalse;
    return {};
  }
  if (upper == kTrue) {
    *g = kTrue;
    return {Cube{}};
  }

  const int lv = m.node_level(lower), uv = m.node_level(upper);
  const int top = std::min(lv, uv);
  const int x = m.var_at_level(top);

  const Edge l0 = lv == top ? m.node_lo(lower) : lower;
  const Edge l1 = lv == top ? m.node_hi(lower) : lower;
  const Edge u0 = uv == top ? m.node_lo(upper) : upper;
  const Edge u1 = uv == top ? m.node_hi(upper) : upper;

  // Minterms that can only be covered with a !x (resp. x) literal.
  const Edge need0 = m.apply_and(l0, m.apply_not(u1));
  Edge g0 = kFalse;
  std::vector<Cube> c0 = isop_rec(m, need0, u0, &g0);

  const Edge need1 = m.apply_and(l1, m.apply_not(u0));
  Edge g1 = kFalse;
  std::vector<Cube> c1 = isop_rec(m, need1, u1, &g1);

  // What remains of L once the literal-bearing cubes are in.
  const Edge rest = m.apply_or(m.apply_and(l0, m.apply_not(g0)),
                                 m.apply_and(l1, m.apply_not(g1)));
  Edge gd = kFalse;
  std::vector<Cube> cd = isop_rec(m, rest, m.apply_and(u0, u1), &gd);

  std::vector<Cube> cover;
  cover.reserve(c0.size() + c1.size() + cd.size());
  for (Cube& c : c0) {
    c.literals.emplace_back(x, false);
    cover.push_back(std::move(c));
  }
  for (Cube& c : c1) {
    c.literals.emplace_back(x, true);
    cover.push_back(std::move(c));
  }
  for (Cube& c : cd) cover.push_back(std::move(c));

  const Edge xb = m.mk(x, kFalse, kTrue);
  *g = m.apply_or(m.ite(xb, g1, g0), gd);
  return cover;
}

}  // namespace

std::vector<Cube> isop(Manager& m, Edge lower, Edge upper) {
  // The recursion keeps unreferenced intermediates (g0/g1/rest/...) alive
  // across public operation calls: hold reactive GC off for its duration.
  Manager::AutoGcPause pause(m);
  Edge g = kFalse;
  std::vector<Cube> cover = isop_rec(m, lower, upper, &g);
  // The result function must lie in the interval.
  assert(m.apply_and(lower, m.apply_not(g)) == kFalse);
  assert(m.apply_and(g, m.apply_not(upper)) == kFalse);
  return cover;
}

}  // namespace mfd::bdd
