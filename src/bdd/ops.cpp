// Recursive BDD operations over complement edges. Every recursion strips the
// complement attribute of its arguments at the earliest point where an
// identity allows it (cofactor(!f) = !cofactor(f), compose and restrict
// distribute over complement, parity folds out of XOR, ITE pushes
// complements to the output), so the computed table only ever sees
// canonical argument triples. None of these run garbage collection
// mid-recursion: reactive GC is gated on `op_depth_`, so intermediate
// results (reference count zero) are safe until the caller anchors the final
// result in a handle.
#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "bdd/bdd.h"
#include "core/errors.h"
#include "core/faultinject.h"

namespace mfd::bdd {

// ---------------------------------------------------------------------------
// Bdd handle operators
// ---------------------------------------------------------------------------

Bdd Bdd::operator&(const Bdd& o) const { return mgr_->wrap(mgr_->apply_and(id_, o.id_)); }
Bdd Bdd::operator|(const Bdd& o) const { return mgr_->wrap(mgr_->apply_or(id_, o.id_)); }
Bdd Bdd::operator^(const Bdd& o) const { return mgr_->wrap(mgr_->apply_xor(id_, o.id_)); }
Bdd Bdd::operator!() const { return mgr_->wrap(!id_); }

Bdd Bdd::cofactor(int var, bool value) const {
  return mgr_->wrap(mgr_->cofactor(id_, var, value));
}

std::size_t Bdd::size() const { return mgr_->dag_size(id_); }

// ---------------------------------------------------------------------------
// ITE
// ---------------------------------------------------------------------------

Edge Manager::ite(Edge f, Edge g, Edge h) {
  if (fault::armed()) fault::point("bdd.ite");
  maybe_auto_gc(f, g, h);
  OpScope scope(*this);
  return ite_rec(f, g, h);
}

Edge Manager::ite_rec(Edge f, Edge g, Edge h) {
  // Terminal and trivial cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (f == g) g = kTrue;         // ite(f, f, h)  == ite(f, 1, h)
  else if (f == !g) g = kFalse;  // ite(f, !f, h) == ite(f, 0, h)
  if (f == h) h = kFalse;        // ite(f, g, f)  == ite(f, g, 0)
  else if (f == !h) h = kTrue;   // ite(f, g, !f) == ite(f, g, 1)
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;
  if (g == kFalse && h == kTrue) return !f;

  // Standard triples: with one constant branch (or h == !g) the triple is
  // symmetric in two of its arguments; pick the representative whose first
  // argument is smallest by (level, bits) so equivalent calls share a cache
  // line. Complements move with the swapped arguments so the function is
  // unchanged.
  const auto precedes = [this](Edge a, Edge b) {
    const int la = node_level(a), lb = node_level(b);
    return la != lb ? la < lb : a.bits() < b.bits();
  };
  if (g == kTrue) {  // OR: ite(f, 1, h) == ite(h, 1, f)
    if (precedes(h, f)) std::swap(f, h);
  } else if (h == kFalse) {  // AND: ite(f, g, 0) == ite(g, f, 0)
    if (precedes(g, f)) std::swap(f, g);
  } else if (g == kFalse) {  // ite(f, 0, h) == ite(!h, 0, !f)
    if (precedes(h, f)) {
      const Edge t = f;
      f = !h;
      h = !t;
    }
  } else if (h == kTrue) {  // ite(f, g, 1) == ite(!g, !f, 1)
    if (precedes(g, f)) {
      const Edge t = f;
      f = !g;
      g = !t;
    }
  } else if (h == !g) {  // XNOR: ite(f, g, !g) == ite(g, f, !f)
    if (precedes(g, f)) {
      const Edge t = f;
      f = g;
      g = t;
      h = !t;
    }
  }

  // Push complements to the output: a regular first argument (else swap the
  // branches), then a regular then-branch (else complement the whole call).
  if (f.is_complemented()) {
    f = !f;
    std::swap(g, h);
  }
  bool out_c = false;
  if (g.is_complemented()) {
    out_c = true;
    g = !g;
    h = !h;
  }

  Edge r = cache_lookup(kOpIte, f, g, h);
  if (r != kInvalid) return r ^ out_c;

  const int lf = node_level(f), lg = node_level(g), lh = node_level(h);
  const int top = std::min(lf, std::min(lg, lh));
  const int v = level_to_var_[top];

  const Edge f0 = lf == top ? node_lo(f) : f;
  const Edge f1 = lf == top ? node_hi(f) : f;
  const Edge g0 = lg == top ? node_lo(g) : g;
  const Edge g1 = lg == top ? node_hi(g) : g;
  const Edge h0 = lh == top ? node_lo(h) : h;
  const Edge h1 = lh == top ? node_hi(h) : h;

  const Edge r0 = ite_rec(f0, g0, h0);
  const Edge r1 = ite_rec(f1, g1, h1);
  r = mk(v, r0, r1);
  cache_insert(kOpIte, f, g, h, r);
  return r ^ out_c;
}

Edge Manager::apply_xor(Edge f, Edge g) {
  maybe_auto_gc(f, g);
  OpScope scope(*this);
  return xor_rec(f, g);
}

Edge Manager::xor_rec(Edge f, Edge g) {
  // Complement parity folds straight out of XOR.
  const bool out_c = f.is_complemented() != g.is_complemented();
  f = f.regular();
  g = g.regular();
  if (f == g) return kFalse ^ out_c;
  if (f == kTrue) return !g ^ out_c;
  if (g == kTrue) return !f ^ out_c;
  if (g < f) std::swap(f, g);  // commutative: canonicalize for the cache

  Edge r = cache_lookup(kOpXor, f, g, kTrue);
  if (r != kInvalid) return r ^ out_c;

  const int lf = node_level(f), lg = node_level(g);
  const int top = std::min(lf, lg);
  const int v = level_to_var_[top];
  const Edge f0 = lf == top ? node_lo(f) : f;
  const Edge f1 = lf == top ? node_hi(f) : f;
  const Edge g0 = lg == top ? node_lo(g) : g;
  const Edge g1 = lg == top ? node_hi(g) : g;

  r = mk(v, xor_rec(f0, g0), xor_rec(f1, g1));
  cache_insert(kOpXor, f, g, kTrue, r);
  return r ^ out_c;
}

// ---------------------------------------------------------------------------
// Cofactors and quantification
// ---------------------------------------------------------------------------

Edge Manager::cofactor(Edge f, int var, bool value) {
  maybe_auto_gc(f, f);
  OpScope scope(*this);
  return cofactor_rec(f, var, value);
}

Edge Manager::cofactor_rec(Edge f, int var, bool value) {
  const bool out_c = f.is_complemented();  // cofactor(!f) == !cofactor(f)
  f = f.regular();
  if (is_terminal(f)) return f ^ out_c;
  const int lv = var_to_level_[var];
  const int lf = node_level(f);
  if (lf > lv) return f ^ out_c;  // var sits above f's top: f does not depend on it
  if (lf == lv) return (value ? node_hi(f) : node_lo(f)) ^ out_c;

  const Edge tag = Edge(static_cast<std::uint32_t>(var) * 2 + (value ? 1 : 0));
  Edge r = cache_lookup(kOpCofactor, f, tag, kTrue);
  if (r == kInvalid) {
    r = mk(static_cast<int>(node_var(f)), cofactor_rec(node_lo(f), var, value),
           cofactor_rec(node_hi(f), var, value));
    cache_insert(kOpCofactor, f, tag, kTrue, r);
  }
  return r ^ out_c;
}

Edge Manager::cofactor_cube(Edge f, const std::vector<std::pair<int, bool>>& a) {
  maybe_auto_gc(f, f);
  OpScope scope(*this);
  Edge r = f;
  for (const auto& [v, val] : a) r = cofactor_rec(r, v, val);
  return r;
}

// ---------------------------------------------------------------------------
// Composition
// ---------------------------------------------------------------------------

Edge Manager::compose_rec(Edge f, int var, Edge g) {
  const bool out_c = f.is_complemented();  // compose distributes over complement
  f = f.regular();
  if (is_terminal(f)) return f ^ out_c;
  const int lv = var_to_level_[var];
  const int lf = node_level(f);
  if (lf > lv) return f ^ out_c;
  if (lf == lv) {
    // f = (var, lo, hi): substitute g for var.
    return ite_rec(g, node_hi(f), node_lo(f)) ^ out_c;
  }
  Edge r = cache_lookup(kOpCompose, f, g, Edge(static_cast<std::uint32_t>(var)));
  if (r == kInvalid) {
    const Edge r0 = compose_rec(node_lo(f), var, g);
    const Edge r1 = compose_rec(node_hi(f), var, g);
    // g's support may reach above f's variable, so rebuild with ITE rather
    // than mk.
    const Edge xv = mk(static_cast<int>(node_var(f)), kFalse, kTrue);
    r = ite_rec(xv, r1, r0);
    cache_insert(kOpCompose, f, g, Edge(static_cast<std::uint32_t>(var)), r);
  }
  return r ^ out_c;
}

Edge Manager::compose(Edge f, int var, Edge g) {
  maybe_auto_gc(f, g);
  OpScope scope(*this);
  return compose_rec(f, var, g);
}

Edge Manager::restrict_to(Edge f, Edge care) {
  if (care == kFalse)
    throw BddError(
        "restrict_to: care set is constant false (the generalized cofactor "
        "is undefined; guard the call site)");
  maybe_auto_gc(f, care);
  OpScope scope(*this);
  return restrict_rec(f, care);
}

Edge Manager::restrict_rec(Edge f, Edge care) {
  // The interval f & care <= r <= f | !care complements to
  // !f & care <= !r <= !f | !care, so restrict distributes over complement.
  const bool out_c = f.is_complemented();
  f = f.regular();
  if (care == kTrue || is_terminal(f)) return f ^ out_c;
  Edge r = cache_lookup(kOpRestrict, f, care, kTrue);
  if (r != kInvalid) return r ^ out_c;

  const int lf = node_level(f), lc = node_level(care);
  if (lc < lf) {
    // The care set constrains a variable above f's support: merge its two
    // halves (the classic or-abstraction step) and continue.
    r = restrict_rec(f, ite_rec(node_lo(care), kTrue, node_hi(care)));
  } else {
    const int top = std::min(lf, lc);
    const int v = level_to_var_[top];
    const Edge f0 = lf == top ? node_lo(f) : f;
    const Edge f1 = lf == top ? node_hi(f) : f;
    const Edge c0 = lc == top ? node_lo(care) : care;
    const Edge c1 = lc == top ? node_hi(care) : care;
    if (c0 == kFalse) {
      // Every v=0 input is a don't care: substitute the sibling entirely.
      r = restrict_rec(f1, c1);
    } else if (c1 == kFalse) {
      r = restrict_rec(f0, c0);
    } else {
      r = mk(v, restrict_rec(f0, c0), restrict_rec(f1, c1));
    }
  }
  cache_insert(kOpRestrict, f, care, kTrue, r);
  return r ^ out_c;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

bool Manager::eval(Edge f, const std::vector<bool>& assignment) const {
  bool parity = false;
  while (!is_terminal(f)) {
    parity ^= f.is_complemented();
    const Node& n = nodes_[f.index()];
    f = assignment[n.var] ? n.hi : n.lo;
  }
  // The terminal is ONE: the value is true iff the total parity is even.
  return !(parity ^ f.is_complemented());
}

std::vector<int> Manager::support(Edge f) const {
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<bool> in_support(static_cast<std::size_t>(num_vars()), false);
  std::vector<NodeIndex> stack{f.index()};
  while (!stack.empty()) {
    const NodeIndex n = stack.back();
    stack.pop_back();
    if (n == 0 || seen[n]) continue;  // terminal or visited
    seen[n] = true;
    in_support[nodes_[n].var] = true;
    stack.push_back(nodes_[n].lo.index());
    stack.push_back(nodes_[n].hi.index());
  }
  std::vector<int> result;
  for (int v = 0; v < num_vars(); ++v)
    if (in_support[v]) result.push_back(v);
  return result;
}

double Manager::sat_count(Edge f, int nv) const {
  const int total_levels = num_vars();
  std::unordered_map<NodeIndex, double> memo;
  // rec(n) = satisfying assignments of the *regular* function rooted at node
  // n over the variables at levels [level(n), total_levels); a complemented
  // edge counts the complement within the same window.
  auto rec = [&](auto&& self, NodeIndex n) -> double {
    if (n == 0) return 1.0;  // ONE over zero remaining variables
    auto it = memo.find(n);
    if (it != memo.end()) return it->second;
    const Node& node = nodes_[n];
    const int level = var_to_level_[node.var];
    const auto count_edge = [&](Edge e) {
      const int le = node_level(e);
      const double reg = self(self, e.index());
      const double val = e.is_complemented() ? std::ldexp(1.0, total_levels - le) - reg : reg;
      return val * std::ldexp(1.0, le - level - 1);
    };
    const double c = count_edge(node.lo) + count_edge(node.hi);
    memo.emplace(n, c);
    return c;
  };
  const int lf = node_level(f);
  const double reg = rec(rec, f.index());
  const double over_window =
      f.is_complemented() ? std::ldexp(1.0, total_levels - lf) - reg : reg;
  const double over_all = over_window * std::ldexp(1.0, lf);
  return over_all * std::ldexp(1.0, nv - total_levels);
}

std::vector<bool> Manager::pick_one(Edge f) const {
  if (f == kFalse)
    throw BddError(
        "pick_one: function is constant false (no satisfying assignment "
        "exists; guard the call site)");
  std::vector<bool> assignment(static_cast<std::size_t>(num_vars()), false);
  while (!is_terminal(f)) {
    // Every non-false edge is satisfiable (canonicity): follow a non-false
    // cofactor, which the node must have since its children differ.
    const Edge lo = node_lo(f);
    const std::uint32_t var = node_var(f);
    if (lo != kFalse) {
      assignment[var] = false;
      f = lo;
    } else {
      assignment[var] = true;
      f = node_hi(f);
    }
  }
  return assignment;
}

std::size_t Manager::dag_size(Edge f) const { return dag_size(std::vector<Edge>{f}); }

std::size_t Manager::dag_size(const std::vector<Edge>& roots) const {
  // Complement tags live on edges, not nodes: count distinct node indices.
  std::vector<bool> seen(nodes_.size(), false);
  std::size_t count = 0;
  std::vector<NodeIndex> stack;
  stack.reserve(roots.size());
  for (Edge r : roots) stack.push_back(r.index());
  while (!stack.empty()) {
    const NodeIndex n = stack.back();
    stack.pop_back();
    if (seen[n]) continue;
    seen[n] = true;
    ++count;
    if (n != 0) {
      stack.push_back(nodes_[n].lo.index());
      stack.push_back(nodes_[n].hi.index());
    }
  }
  return count;
}

}  // namespace mfd::bdd
