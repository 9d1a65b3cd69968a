#include "util/coloring.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "core/budget.h"
#include "core/faultinject.h"
#include "obs/obs.h"

namespace mfd {
namespace {

/// DSATUR: repeatedly color the vertex with the highest saturation degree
/// (number of distinct neighbor colors), breaking ties by degree and then by
/// a random permutation so that restarts explore different solutions.
///
/// Both tie-breaks are fixed for a run, so they form one static rank (degree
/// descending, then shuffled position) and the pick is the lowest-ranked
/// vertex of the highest non-empty saturation level. Each level is a bitset
/// over ranks and each vertex keeps its neighbors' colors as a bitset, so a
/// step costs O(n / 64) words plus the chosen vertex's degree. The buffers
/// are reused from run to run.
class Dsatur {
 public:
  void run(const Graph& g, Rng& rng, Coloring& out) {
    const int n = g.num_vertices();
    out.color.assign(static_cast<std::size_t>(n), -1);
    out.num_colors = 0;
    if (n == 0) return;
    words_ = (static_cast<std::size_t>(n) + 63) / 64;

    tiebreak_.resize(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) tiebreak_[v] = v;
    rng.shuffle(tiebreak_);
    by_rank_.resize(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) by_rank_[v] = v;
    std::sort(by_rank_.begin(), by_rank_.end(), [&](int a, int b) {
      return g.degree(a) != g.degree(b) ? g.degree(a) > g.degree(b)
                                        : tiebreak_[a] < tiebreak_[b];
    });
    rank_.resize(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) rank_[by_rank_[r]] = r;

    sat_.assign(static_cast<std::size_t>(n), 0);
    nbr_colors_.assign(static_cast<std::size_t>(n) * words_, 0);
    levels_.assign(static_cast<std::size_t>(n + 1) * words_, 0);
    for (int r = 0; r < n; ++r) set(level(0), r);
    int top = 0;  // no level above `top` holds a vertex

    for (int step = 0; step < n; ++step) {
      int r;
      while ((r = first_one(level(top))) < 0) --top;
      clear(level(top), r);
      const int best = by_rank_[r];
      // Smallest color not used by a neighbor.
      const int c = first_zero(nbr(best));
      out.color[best] = c;
      out.num_colors = std::max(out.num_colors, c + 1);
      for (int u : g.neighbors(best)) {
        if (out.color[u] != -1 || test(nbr(u), c)) continue;
        set(nbr(u), c);
        clear(level(sat_[u]), rank_[u]);
        set(level(++sat_[u]), rank_[u]);
        top = std::max(top, sat_[u]);
      }
    }
  }

 private:
  std::uint64_t* level(int s) { return &levels_[static_cast<std::size_t>(s) * words_]; }
  std::uint64_t* nbr(int v) { return &nbr_colors_[static_cast<std::size_t>(v) * words_]; }
  static void set(std::uint64_t* bits, int i) { bits[i >> 6] |= std::uint64_t{1} << (i & 63); }
  static void clear(std::uint64_t* bits, int i) { bits[i >> 6] &= ~(std::uint64_t{1} << (i & 63)); }
  static bool test(const std::uint64_t* bits, int i) { return (bits[i >> 6] >> (i & 63)) & 1; }
  int first_one(const std::uint64_t* bits) const {
    for (std::size_t w = 0; w < words_; ++w)
      if (bits[w] != 0) return static_cast<int>(w * 64) + std::countr_zero(bits[w]);
    return -1;
  }
  // A vertex has fewer neighbors than there are bits, so a zero exists.
  int first_zero(const std::uint64_t* bits) const {
    std::size_t w = 0;
    while (bits[w] == ~std::uint64_t{0}) ++w;
    return static_cast<int>(w * 64) + std::countr_one(bits[w]);
  }

  std::size_t words_ = 0;
  std::vector<int> tiebreak_, by_rank_, rank_, sat_;
  std::vector<std::uint64_t> nbr_colors_;  // per vertex: colors of its neighbors
  std::vector<std::uint64_t> levels_;      // per saturation: ranks of uncolored vertices
};

/// Exact coloring by branch and bound over vertices in decreasing-degree
/// order. Feasible because the decomposition core only calls it for graphs
/// with at most ~20 vertices (bound sets with 2^p small).
class ExactColorer {
 public:
  explicit ExactColorer(const Graph& g) : g_(g), n_(g.num_vertices()) {
    order_.resize(n_);
    for (int v = 0; v < n_; ++v) order_[v] = v;
    std::sort(order_.begin(), order_.end(), [&](int a, int b) {
      return g_.degree(a) > g_.degree(b);
    });
  }

  Coloring solve(const Coloring& initial) {
    best_ = initial;
    color_.assign(n_, -1);
    branch(0, 0);
    obs::add("coloring.exact_nodes", static_cast<std::uint64_t>(kBudget - budget_));
    return best_;
  }

 private:
  void branch(int pos, int used) {
    if (budget_-- <= 0) return;  // keep worst-case cost bounded
    if (used >= best_.num_colors) return;  // can't beat incumbent
    if (pos == n_) {
      best_.num_colors = used;
      best_.color = color_;
      // Re-index colors by vertex id (color_ is indexed by vertex already).
      return;
    }
    const int v = order_[pos];
    bool forbidden_storage[64] = {};
    for (int u : g_.neighbors(v)) {
      const int cu = color_[u];
      if (cu >= 0 && cu < 64) forbidden_storage[cu] = true;
    }
    const int limit = std::min(used + 1, best_.num_colors - 1);
    for (int c = 0; c < limit; ++c) {
      if (c < 64 && forbidden_storage[c]) continue;
      color_[v] = c;
      branch(pos + 1, std::max(used, c + 1));
      color_[v] = -1;
    }
  }

  static constexpr long kBudget = 500000;

  const Graph& g_;
  int n_;
  long budget_ = kBudget;
  std::vector<int> order_;
  std::vector<int> color_;
  Coloring best_;
};

}  // namespace

Coloring color_graph(const Graph& g, const ColoringOptions& opts) {
  obs::add("coloring.calls");
  if (fault::armed()) fault::point("util.coloring");
  // Deadline awareness: under an installed governor, restarts stop as soon as
  // the deadline passes, and the exact branch-and-bound is skipped entirely
  // once the deadline has expired. The first DSATUR pass always runs — a
  // proper coloring is required for correctness, only optimality is traded.
  ResourceGovernor* gov = ResourceGovernor::current();
  static Dsatur dsatur;
  Rng rng(opts.seed);
  Coloring best;
  dsatur.run(g, rng, best);
  std::uint64_t dsatur_runs = 1;
  Coloring c;
  for (int r = 1; r < opts.restarts; ++r) {
    if (gov != nullptr && gov->deadline_expired()) {
      obs::add("coloring.restarts_skipped", static_cast<std::uint64_t>(opts.restarts - r));
      break;
    }
    dsatur.run(g, rng, c);
    ++dsatur_runs;
    if (c.num_colors < best.num_colors) std::swap(best, c);
  }
  obs::add("coloring.dsatur_runs", dsatur_runs);
  if (g.num_vertices() <= opts.exact_vertex_limit && g.num_vertices() > 0) {
    if (gov != nullptr && gov->deadline_expired()) {
      obs::add("coloring.exact_skipped");
    } else {
      obs::add("coloring.exact_runs");
      ExactColorer exact(g);
      Coloring c = exact.solve(best);
      if (c.num_colors < best.num_colors) best = c;
    }
  }
  return best;
}

bool coloring_is_proper(const Graph& g, const Coloring& c) {
  const int n = g.num_vertices();
  if (static_cast<int>(c.color.size()) != n) return false;
  for (int v = 0; v < n; ++v) {
    if (c.color[v] < 0 || c.color[v] >= c.num_colors) return false;
    for (int u : g.neighbors(v))
      if (c.color[u] == c.color[v]) return false;
  }
  return true;
}

}  // namespace mfd
