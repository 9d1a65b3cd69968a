#include "isf/isf.h"

#include <algorithm>
#include <cassert>

namespace mfd {

Isf::Isf(bdd::Bdd on, bdd::Bdd care) : on_(on & care), care_(std::move(care)) {}

Isf Isf::completely_specified(bdd::Bdd f) {
  bdd::Manager* m = f.manager();
  return Isf(std::move(f), m->bdd_true());
}

Isf Isf::cofactor(int var, bool value) const {
  Isf r;
  r.on_ = on_.cofactor(var, value);
  r.care_ = care_.cofactor(var, value);
  return r;
}

bool Isf::admits(const bdd::Bdd& f) const {
  // on <= f and (f & care) <= on, i.e. f matches on exactly within care.
  return (on_ & !f).is_false() && (f & care_ & !on_).is_false();
}

bool Isf::compatible_with(const Isf& other) const {
  // Completely specified fast path: canonicity makes equality O(1).
  if (care_.is_true() && other.care_.is_true()) return on_ == other.on_;
  // Conflict iff some input is cared for by both with opposite values.
  return ((on_ ^ other.on_) & care_ & other.care_).is_false();
}

Isf Isf::merge(const Isf& other) const {
  Isf r;
  r.on_ = on_ | other.on_;
  r.care_ = care_ | other.care_;
  return r;
}

bdd::Bdd Isf::extension_small() const {
  if (care_.is_true() || care_.is_false()) return on_;
  bdd::Manager& m = *manager();
  const bdd::Bdd restricted = m.wrap(m.restrict_to(on_.id(), care_.id()));
  const std::size_t supp_r = m.support(restricted.id()).size();
  const std::size_t supp_z = m.support(on_.id()).size();
  // restrict_rec makes nodes only on variables of on_, so it never enlarges
  // the support.
  assert(supp_r <= supp_z);
  if (supp_r < supp_z) return restricted;
  return restricted.size() <= on_.size() ? restricted : on_;
}

std::vector<int> Isf::support() const {
  bdd::Manager* m = manager();
  std::vector<int> a = m->support(on_.id());
  std::vector<int> b = m->support(care_.id());
  std::vector<int> result;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(result));
  return result;
}

}  // namespace mfd
