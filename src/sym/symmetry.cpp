#include "sym/symmetry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <utility>

#include "cache/cache.h"
#include "obs/obs.h"

namespace mfd {
namespace {

using bdd::Bdd;
using bdd::Manager;
using bdd::Edge;

/// The two cofactor patterns whose equality defines the symmetry.
struct SlotPair {
  bool a_first, b_first;   // values of (var_a, var_b) in the first cofactor
  bool a_second, b_second; // and in the second
};

SlotPair slots(SymmetryKind kind) {
  if (kind == SymmetryKind::kNonequivalence) return {false, true, true, false};
  return {false, false, true, true};
}

Edge cof2(Manager& m, Edge f, int va, bool a, int vb, bool b) {
  return m.cofactor(m.cofactor(f, va, a), vb, b);
}

/// Writes to `out` the mirror image of t for the table variables (i, j) of a
/// pair; j = -1 when only i is in the support.
void mirror(const tt::TruthTable& t, int i, int j, SymmetryKind kind, tt::TruthTable& out) {
  out = t;
  if (j < 0) {
    // The function ignores the other variable: both kinds compare its
    // cofactors at i = 0 and i = 1.
    out.flip_var(i);
    return;
  }
  out.swap_vars(i, j);
  if (kind == SymmetryKind::kEquivalence) {
    out.flip_var(i);
    out.flip_var(j);
  }
}

/// The pair's two assignments of the slots of `kind`.
std::pair<bdd::CofactorDag::Pair, bdd::CofactorDag::Pair> assignments(int var_a, int var_b,
                                                                      SymmetryKind kind) {
  const SlotPair s = slots(kind);
  return {{var_a, s.a_first, var_b, s.b_first}, {var_a, s.a_second, var_b, s.b_second}};
}

/// The cross-check: aborts unless a tester's answer equals the BDD test's.
void check(bool answer, bool reference, const char* test, int var_a, int var_b) {
  if (answer == reference) return;
  std::fprintf(stderr,
               "symmetry cross-check failed: %s(%d, %d) is %d, the BDD test says %d\n",
               test, var_a, var_b, answer, reference);
  std::abort();
}

}  // namespace

bool is_symmetric(Manager& m, Edge f, int var_a, int var_b, SymmetryKind kind) {
  // Both cofactor chains produce unreferenced results that must survive the
  // other chain's operations: keep reactive GC off.
  Manager::AutoGcPause pause(m);
  const SlotPair s = slots(kind);
  return cof2(m, f, var_a, s.a_first, var_b, s.b_first) ==
         cof2(m, f, var_a, s.a_second, var_b, s.b_second);
}

bool isf_is_symmetric(const Isf& f, int var_a, int var_b, SymmetryKind kind) {
  Manager& m = *f.manager();
  return is_symmetric(m, f.on().id(), var_a, var_b, kind) &&
         is_symmetric(m, f.care().id(), var_a, var_b, kind);
}

bool symmetrizable(const Isf& f, int var_a, int var_b, SymmetryKind kind) {
  Manager& m = *f.manager();
  Manager::AutoGcPause pause(m);  // on1..ca2 stay unreferenced across ops
  const SlotPair s = slots(kind);
  const Edge on1 = cof2(m, f.on().id(), var_a, s.a_first, var_b, s.b_first);
  const Edge on2 = cof2(m, f.on().id(), var_a, s.a_second, var_b, s.b_second);
  const Edge ca1 = cof2(m, f.care().id(), var_a, s.a_first, var_b, s.b_first);
  const Edge ca2 = cof2(m, f.care().id(), var_a, s.a_second, var_b, s.b_second);
  // Conflict: a point both slots care about, with different values.
  const Edge diff = m.apply_xor(on1, on2);
  const Edge conflict = m.apply_and(diff, m.apply_and(ca1, ca2));
  return conflict == bdd::kFalse;
}

Isf make_symmetric(const Isf& f, int var_a, int var_b, SymmetryKind kind) {
  Manager& m = *f.manager();
  const SlotPair s = slots(kind);

  auto quadrant = [&](const Bdd& g, bool a, bool b) {
    return m.wrap(cof2(m, g.id(), var_a, a, var_b, b));
  };
  // Merge the two symmetry slots: the union of their information.
  const Bdd on_m = quadrant(f.on(), s.a_first, s.b_first) |
                   quadrant(f.on(), s.a_second, s.b_second);
  const Bdd care_m = quadrant(f.care(), s.a_first, s.b_first) |
                     quadrant(f.care(), s.a_second, s.b_second);

  const Bdd la = m.var(var_a), lb = m.var(var_b);
  auto cube = [&](bool a, bool b) {
    return (a ? la : !la) & (b ? lb : !lb);
  };

  auto rebuild = [&](const Bdd& g, const Bdd& merged) {
    Bdd result = g.manager()->bdd_false();
    for (const bool a : {false, true}) {
      for (const bool b : {false, true}) {
        const bool in_first = (a == s.a_first && b == s.b_first);
        const bool in_second = (a == s.a_second && b == s.b_second);
        const Bdd slot_value =
            (in_first || in_second) ? merged : quadrant(g, a, b);
        result |= cube(a, b) & slot_value;
      }
    }
    return result;
  };

  return Isf(rebuild(f.on(), on_m), rebuild(f.care(), care_m));
}

SymmetryTester::SymmetryTester(Isf f) : check_(cache::config().cross_check) {
  reset(std::move(f));
}

void SymmetryTester::reset(Isf f) {
  f_ = std::move(f);
  support_ = f_.support();
  on_tables_ = support_.size() <= static_cast<std::size_t>(tt::kMaxVars);
  tables_.reset();
  dag_.reset();
}

bool SymmetryTester::in_support(int v) const {
  return std::binary_search(support_.begin(), support_.end(), v);
}

bdd::CofactorDag& SymmetryTester::dag() {
  if (!dag_) dag_.emplace(*f_.manager(), f_.on().id(), f_.care().id());
  return *dag_;
}

int SymmetryTester::table_var(int v) {
  if (!tables_) tables_ = tt::isf_tables(f_, support_);
  const auto it = std::find(tables_->vars.begin(), tables_->vars.end(), v);
  return it == tables_->vars.end() ? -1 : static_cast<int>(it - tables_->vars.begin());
}

bool SymmetryTester::is_symmetric(int var_a, int var_b, SymmetryKind kind) {
  const int present = int{in_support(var_a)} + int{in_support(var_b)};
  bool answer = present == 0;
  if (present == 2) {
    if (!on_tables_) {
      ++bdd_tests_;
      bdd::CofactorDag& d = dag();
      const auto [x, y] = assignments(var_a, var_b, kind);
      answer = d.equal(d.on(), x, y) && d.equal(d.care(), x, y);
    } else {
      ++tt_tests_;
      const int i = table_var(var_a), j = table_var(var_b);
      mirror(tables_->on, i, j, kind, on_mirror_);
      answer = on_mirror_ == tables_->on;
      if (answer && !tables_->complete) {
        mirror(tables_->care, i, j, kind, care_mirror_);
        answer = care_mirror_ == tables_->care;
      }
    }
  }
  if (check_)
    check(answer, isf_is_symmetric(f_, var_a, var_b, kind), "is_symmetric", var_a, var_b);
  return answer;
}

bool SymmetryTester::symmetrizable(int var_a, int var_b, SymmetryKind kind) {
  if (!in_support(var_a) && !in_support(var_b)) {
    if (check_)
      check(true, mfd::symmetrizable(f_, var_a, var_b, kind), "symmetrizable", var_a, var_b);
    return true;
  }
  bool answer = true;
  if (!on_tables_) {
    ++bdd_tests_;
    const auto [x, y] = assignments(var_a, var_b, kind);
    answer = !dag().conflict(x, y);
  } else {
    ++tt_tests_;
    int i = table_var(var_a), j = table_var(var_b);
    if (i < 0) std::swap(i, j);
    // A conflict is a point whose image both care about, with another value.
    const tt::IsfTables& t = *tables_;
    mirror(t.on, i, j, kind, on_mirror_);
    if (!t.complete) mirror(t.care, i, j, kind, care_mirror_);
    for (std::size_t w = 0; w < t.on.num_words() && answer; ++w) {
      const std::uint64_t cared =
          t.complete ? ~std::uint64_t{0} : t.care.data()[w] & care_mirror_.data()[w];
      answer = ((t.on.data()[w] ^ on_mirror_.data()[w]) & cared) == 0;
    }
  }
  if (check_)
    check(answer, mfd::symmetrizable(f_, var_a, var_b, kind), "symmetrizable", var_a, var_b);
  return answer;
}

void publish_test_counts(const std::vector<SymmetryTester>& testers) {
  std::uint64_t tt_tests = 0, bdd_tests = 0;
  for (const SymmetryTester& t : testers) {
    tt_tests += t.tt_tests();
    bdd_tests += t.bdd_tests();
  }
  obs::add("sym.tt_tests", tt_tests);
  obs::add("sym.bdd_tests", bdd_tests);
}

std::vector<std::vector<int>> symmetry_groups(const std::vector<Isf>& fns,
                                              const std::vector<int>& vars) {
  const int k = static_cast<int>(vars.size());
  std::vector<int> parent(static_cast<std::size_t>(k));
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };

  std::vector<SymmetryTester> testers;
  testers.reserve(fns.size());
  for (const Isf& f : fns) testers.emplace_back(f);
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      if (find(i) == find(j)) continue;
      bool all = true;
      for (SymmetryTester& t : testers) {
        if (!t.is_symmetric(vars[i], vars[j], SymmetryKind::kNonequivalence)) {
          all = false;
          break;
        }
      }
      if (all) parent[find(i)] = find(j);
    }
  }
  publish_test_counts(testers);

  std::vector<std::vector<int>> groups(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) groups[static_cast<std::size_t>(find(i))].push_back(vars[i]);
  std::erase_if(groups, [](const std::vector<int>& g) { return g.empty(); });
  return groups;
}

}  // namespace mfd
