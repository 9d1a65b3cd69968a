#include "sym/symmetry.h"

#include <algorithm>
#include <array>
#include <bit>
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

/// The cross-check of a pair test: aborts unless the view's answer equals
/// the BDD test's.
void check(bool answer, bool reference, const char* test, int var_a, int var_b) {
  if (answer == reference) return;
  std::fprintf(stderr,
               "symmetry cross-check failed: %s(%d, %d) is %d, the BDD test says %d\n",
               test, var_a, var_b, answer, reference);
  std::abort();
}

/// The cross-check of a class query: aborts unless the view's classes equal
/// the shared manager's.
void check(const BoundClasses& answer, const Isf& f, const std::vector<int>& bound) {
  BoundClasses reference;
  bound_classes(f, bound, reference);
  if (answer == reference) return;
  std::fprintf(stderr, "class cross-check failed: %d classes, %zu conflicts; the BDDs say %d, %zu\n",
               answer.ids, answer.conflicts.size(), reference.ids, reference.conflicts.size());
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

// ---------------------------------------------------------------------------
// OutputView
// ---------------------------------------------------------------------------

OutputView::OutputView(Isf f) : check_(cache::config().cross_check) { reset(std::move(f)); }

OutputView OutputView::reference(Isf f) {
  OutputView view(std::move(f));
  view.path_ = Path::kManager;
  return view;
}

void OutputView::reset(Isf f) {
  f_ = std::move(f);
  support_ = f_.support();
  if (path_ != Path::kManager)
    path_ = support_.size() <= static_cast<std::size_t>(tt::kMaxVars) ? Path::kTables
                                                                       : Path::kDag;
  rebuild();
  forget_answers();
}

void OutputView::rebuild() {
  tables_.reset();
  dag_.reset();
  base_built_ = false;
}

bool OutputView::in_support(int v) const {
  return std::binary_search(support_.begin(), support_.end(), v);
}

const tt::IsfTables& OutputView::tables() {
  if (!tables_) tables_ = tt::isf_tables(f_, support_);
  return *tables_;
}

int OutputView::table_var(int v) {
  const std::vector<int>& vars = tables().vars;
  const auto it = std::find(vars.begin(), vars.end(), v);
  return it == vars.end() ? -1 : static_cast<int>(it - vars.begin());
}

bdd::CofactorDag& OutputView::dag() {
  if (!dag_) dag_.emplace(*f_.manager(), f_.on().id(), f_.care().id());
  return *dag_;
}

bool OutputView::is_symmetric(int var_a, int var_b, SymmetryKind kind) {
  if (path_ == Path::kManager) return isf_is_symmetric(f_, var_a, var_b, kind);
  const int present = int{in_support(var_a)} + int{in_support(var_b)};
  bool answer = present == 0;
  if (present == 2) {
    if (path_ == Path::kDag) {
      ++counts_.dag_tests;
      bdd::CofactorDag& d = dag();
      const auto [x, y] = assignments(var_a, var_b, kind);
      answer = d.equal(d.on(), x, y) && d.equal(d.care(), x, y);
    } else {
      ++counts_.tt_tests;
      const int i = table_var(var_a), j = table_var(var_b);
      static tt::TruthTable on_mirror, care_mirror;
      mirror(tables_->on, i, j, kind, on_mirror);
      answer = on_mirror == tables_->on;
      if (answer && !tables_->complete) {
        mirror(tables_->care, i, j, kind, care_mirror);
        answer = care_mirror == tables_->care;
      }
    }
  }
  if (check_)
    check(answer, isf_is_symmetric(f_, var_a, var_b, kind), "is_symmetric", var_a, var_b);
  return answer;
}

bool OutputView::symmetrizable(int var_a, int var_b, SymmetryKind kind) {
  if (path_ == Path::kManager) return mfd::symmetrizable(f_, var_a, var_b, kind);
  const bool present = in_support(var_a) || in_support(var_b);
  bool answer = true;  // with neither variable in the support nothing conflicts
  if (present && path_ == Path::kDag) {
    ++counts_.dag_tests;
    const auto [x, y] = assignments(var_a, var_b, kind);
    answer = !dag().conflict(x, y);
  } else if (present) {
    ++counts_.tt_tests;
    int i = table_var(var_a), j = table_var(var_b);
    if (i < 0) std::swap(i, j);
    // A conflict is a point whose image both care about, with another value.
    const tt::IsfTables& t = *tables_;
    static tt::TruthTable on_mirror, care_mirror;
    mirror(t.on, i, j, kind, on_mirror);
    if (!t.complete) mirror(t.care, i, j, kind, care_mirror);
    for (std::size_t w = 0; w < t.on.num_words() && answer; ++w) {
      const std::uint64_t cared =
          t.complete ? ~std::uint64_t{0} : t.care.data()[w] & care_mirror.data()[w];
      answer = ((t.on.data()[w] ^ on_mirror.data()[w]) & cared) == 0;
    }
  }
  if (check_)
    check(answer, mfd::symmetrizable(f_, var_a, var_b, kind), "symmetrizable", var_a, var_b);
  return answer;
}

void OutputView::classes(const std::vector<int>& bound, BoundClasses& out) {
  if (path_ == Path::kManager) return bound_classes(f_, bound, out);
  if (path_ == Path::kTables) {
    ++counts_.tt_classes;
    classes_on_tables(bound, out);
  } else {
    ++counts_.dag_classes;
    classes_on_dag(bound, out);
  }
  if (check_) check(out, f_, bound);
}

void OutputView::classes_on_tables(const std::vector<int>& bound, BoundClasses& out) {
  // The cut variables (bound variables in the support) move to the top of a
  // copy of the tables, so the cofactors are contiguous blocks.
  const tt::IsfTables& t = tables();
  const int n = t.num_vars();
  std::vector<int> var_of(bound.size(), -1);  // table variable of bound[k]
  std::uint32_t cut_mask = 0;
  for (std::size_t k = 0; k < bound.size(); ++k) {
    const auto it = std::find(t.vars.begin(), t.vars.end(), bound[k]);
    if (it == t.vars.end()) continue;
    var_of[k] = static_cast<int>(it - t.vars.begin());
    cut_mask |= std::uint32_t{1} << var_of[k];
  }
  const int w = n - std::popcount(cut_mask);  // cofactor block width
  std::array<int, tt::kMaxVars> at{}, pos{};  // table variable at / position of
  for (int j = 0; j < n; ++j) at[j] = pos[j] = j;

  // A cut variable already in the top positions stays there, so windows at
  // the top of the level order need no swap (and no copy).
  static tt::TruthTable on_moved, care_moved;
  bool moved = false;
  int top = w;
  for (const int j : var_of) {
    if (j < 0 || pos[j] >= w) continue;
    while ((cut_mask >> at[top]) & 1) ++top;
    if (!moved) {
      on_moved = t.on;
      if (!t.complete) care_moved = t.care;
      moved = true;
    }
    const int from = pos[j];
    on_moved.swap_vars(from, top);
    if (!t.complete) care_moved.swap_vars(from, top);
    pos[at[top]] = from;
    pos[j] = top;
    std::swap(at[from], at[top]);
  }

  // The care table of a complete output is all ones and is never read.
  const tt::Blocks on_blocks(moved ? on_moved : t.on, w);
  const tt::Blocks care_blocks(moved && !t.complete ? care_moved : t.care, w);
  std::vector<int> id_of_block(std::size_t{1} << (n - w), -1);
  std::vector<std::size_t> rep;  // block of each id
  std::vector<std::uint64_t> rep_hash;
  out.of_vertex.resize(std::size_t{1} << bound.size());
  for (std::size_t v = 0; v < out.of_vertex.size(); ++v) {
    std::size_t block = 0;
    for (std::size_t k = 0; k < bound.size(); ++k)
      if (var_of[k] >= 0) block |= ((v >> k) & 1) << (pos[var_of[k]] - w);
    int& id = id_of_block[block];
    if (id < 0) {
      const std::uint64_t h =
          t.complete ? on_blocks.hash(block)
                     : on_blocks.hash(block) * 0x100000001B3ull ^ care_blocks.hash(block);
      for (std::size_t r = 0; r < rep.size() && id < 0; ++r)
        if (rep_hash[r] == h && on_blocks.equal(block, rep[r]) &&
            (t.complete || care_blocks.equal(block, rep[r])))
          id = static_cast<int>(r);
      if (id < 0) {
        id = static_cast<int>(rep.size());
        rep.push_back(block);
        rep_hash.push_back(h);
      }
    }
    out.of_vertex[v] = id;
  }
  out.ids = static_cast<int>(rep.size());
  out.conflicts.clear();
  if (t.complete) return;
  for (int a = 0; a < out.ids; ++a)
    for (int b = a + 1; b < out.ids; ++b)
      if (!tt::compatible(on_blocks, care_blocks, rep[static_cast<std::size_t>(a)],
                          rep[static_cast<std::size_t>(b)]))
        out.conflicts.emplace_back(a, b);
}

void OutputView::classes_on_dag(const std::vector<int>& bound, BoundClasses& out) {
  // The (on, care) id pairs of the 2^p vertices, numbered in first-seen
  // vertex order (equal ids are equal functions).
  using Id = bdd::CofactorDag::Id;
  static std::vector<std::pair<Id, Id>> vertex, rep;
  static std::vector<int> slot_id;
  bdd::CofactorDag& d = dag();
  const std::uint64_t built = d.nodes_built();
  if (!base_.empty() && !base_built_) {
    d.set_base(base_);
    base_built_ = true;
  }
  if (d.cofactors(bound, vertex)) ++counts_.base_extensions;
  out.of_vertex.resize(vertex.size());
  rep.clear();
  const std::size_t mask = std::bit_ceil(2 * vertex.size()) - 1;
  slot_id.assign(mask + 1, -1);
  for (std::size_t v = 0; v < vertex.size(); ++v) {
    const auto [on, care] = vertex[v];
    const std::uint64_t h = ((std::uint64_t{on} << 32) | care) * 0x9e3779b97f4a7c15ULL;
    std::size_t s = static_cast<std::size_t>(h >> 32) & mask;
    while (slot_id[s] >= 0 && rep[static_cast<std::size_t>(slot_id[s])] != vertex[v])
      s = (s + 1) & mask;
    if (slot_id[s] < 0) {
      slot_id[s] = static_cast<int>(rep.size());
      rep.push_back(vertex[v]);
    }
    out.of_vertex[v] = slot_id[s];
  }
  out.ids = static_cast<int>(rep.size());
  out.conflicts.clear();
  if (d.care() != bdd::CofactorDag::kOne) {
    for (std::size_t a = 0; a < rep.size(); ++a)
      for (std::size_t b = a + 1; b < rep.size(); ++b)
        if (d.conflict(rep[a].first, rep[a].second, rep[b].first, rep[b].second))
          out.conflicts.emplace_back(static_cast<int>(a), static_cast<int>(b));
  }
  d.drop_scratch();
  counts_.dag_nodes += d.nodes_built() - built;
}

void OutputView::set_base(const std::vector<int>& vars) {
  if (path_ != Path::kDag) return;
  if (base_built_ && dag_) dag_->release_base();
  base_built_ = false;
  base_ = vars;
}

std::uint64_t OutputView::key_of(const std::vector<int>& cut) const {
  if (cut.size() > 8) return 0;
  std::uint64_t key = 0;
  for (std::size_t j = 0; j < cut.size(); ++j) {
    const auto it = std::lower_bound(support_.begin(), support_.end(), cut[j]);
    const auto at = it - support_.begin();
    if (it == support_.end() || *it != cut[j] || at >= 255) return 0;
    key |= static_cast<std::uint64_t>(at + 1) << (8 * j);
  }
  return key;
}

std::size_t OutputView::slot_of(std::uint64_t key) const {
  const std::uint64_t h = key * 0x9e3779b97f4a7c15ULL;
  const std::size_t mask = index_.size() - 1;
  std::size_t s = static_cast<std::size_t>(h ^ (h >> 32)) & mask;
  while (index_[s] != 0 && stored_[index_[s] - 1].key != key) s = (s + 1) & mask;
  return s;
}

void OutputView::forget_answers() {
  stored_.clear();
  ids_.clear();
  index_.clear();
}

std::optional<OutputView::CutAnswer> OutputView::answer(const std::vector<int>& cut,
                                                        std::uint64_t seed) {
  if (stored_.empty() || seed != seed_) return std::nullopt;
  const std::uint64_t key = key_of(cut);
  const std::uint32_t e = key != 0 ? index_[slot_of(key)] : 0;
  if (e == 0) return std::nullopt;
  ++counts_.reused;
  const Stored& a = stored_[e - 1];
  return CutAnswer{a.r, a.ids, ids_.data() + a.ids_at};
}

void OutputView::remember(const std::vector<int>& cut, std::uint64_t seed, int r,
                          const BoundClasses& classes) {
  const std::uint64_t key = key_of(cut);
  if (path_ == Path::kManager || key == 0) return;
  if (seed != seed_) {
    forget_answers();
    seed_ = seed;
  }
  if (2 * (stored_.size() + 1) > index_.size()) {
    index_.assign(std::max<std::size_t>(64, 2 * index_.size()), 0);
    for (std::size_t e = 0; e < stored_.size(); ++e)
      index_[slot_of(stored_[e].key)] = static_cast<std::uint32_t>(e + 1);
  }
  const std::size_t slot = slot_of(key);
  if (index_[slot] != 0) return;
  stored_.push_back(Stored{key, static_cast<std::uint32_t>(ids_.size()),
                           static_cast<std::uint16_t>(classes.ids), static_cast<std::uint8_t>(r)});
  for (const int id : classes.of_vertex) ids_.push_back(static_cast<std::uint8_t>(id));
  index_[slot] = static_cast<std::uint32_t>(stored_.size());
}

std::vector<OutputView> output_views(std::vector<Isf> fns) {
  std::vector<OutputView> views;
  views.reserve(fns.size());
  for (Isf& f : fns) views.emplace_back(std::move(f));
  return views;
}

void publish_pair_tests(std::vector<OutputView>& views) {
  std::uint64_t tt_tests = 0, dag_tests = 0;
  for (OutputView& v : views) {
    tt_tests += std::exchange(v.counts_.tt_tests, 0);
    dag_tests += std::exchange(v.counts_.dag_tests, 0);
  }
  obs::add("sym.tt_tests", tt_tests);
  obs::add("sym.bdd_tests", dag_tests);
}

void publish_class_queries(std::vector<OutputView>& views) {
  std::uint64_t tt_classes = 0, dag_classes = 0, reused = 0, base_extensions = 0, dag_nodes = 0;
  for (OutputView& v : views) {
    tt_classes += std::exchange(v.counts_.tt_classes, 0);
    dag_classes += std::exchange(v.counts_.dag_classes, 0);
    reused += std::exchange(v.counts_.reused, 0);
    base_extensions += std::exchange(v.counts_.base_extensions, 0);
    dag_nodes += std::exchange(v.counts_.dag_nodes, 0);
  }
  obs::add("boundset.tt_outputs", tt_classes);
  obs::add("boundset.bdd_outputs", dag_classes);
  obs::add("boundset.reused_outputs", reused);
  obs::add("boundset.base_extensions", base_extensions);
  obs::add("boundset.dag_nodes", dag_nodes);
}

std::vector<std::vector<int>> symmetry_groups(std::vector<OutputView>& views,
                                              const std::vector<int>& vars) {
  const int k = static_cast<int>(vars.size());
  std::vector<int> parent(static_cast<std::size_t>(k));
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };

  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      if (find(i) == find(j)) continue;
      bool all = true;
      for (OutputView& v : views) {
        if (!v.is_symmetric(vars[i], vars[j], SymmetryKind::kNonequivalence)) {
          all = false;
          break;
        }
      }
      if (all) parent[find(i)] = find(j);
    }
  }
  publish_pair_tests(views);

  std::vector<std::vector<int>> groups(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) groups[static_cast<std::size_t>(find(i))].push_back(vars[i]);
  std::erase_if(groups, [](const std::vector<int>& g) { return g.empty(); });
  return groups;
}

}  // namespace mfd
