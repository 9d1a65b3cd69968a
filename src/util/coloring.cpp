#include "util/coloring.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "core/budget.h"
#include "core/faultinject.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace mfd {
namespace {

/// DSATUR: repeatedly color the vertex with the highest saturation degree
/// (number of distinct neighbor colors), breaking ties by degree and then by
/// a random permutation so that restarts explore different solutions.
///
/// Both tie-breaks are fixed for a run, so they form one static rank (degree
/// descending, then shuffled position), which a counting sort over the
/// degrees gives, and the pick is the lowest-ranked vertex of the highest
/// non-empty saturation level. Each level is a bitset over ranks and each
/// vertex keeps its neighbors' colors as a bitset; the chosen vertex's
/// uncolored neighbors are its row masked by the uncolored set, so a step
/// costs O(n / 64) words plus those neighbors. The buffers are reused from
/// run to run.
class Dsatur {
 public:
  /// Takes g for the runs that follow, with its degrees and the first rank
  /// of each degree (higher degrees rank first).
  void load(const BitGraph& g) {
    g_ = &g;
    n_ = g.num_vertices();
    words_ = g.words();
    const std::size_t n = static_cast<std::size_t>(n_);
    degree_.resize(n);
    first_rank_.assign(n + 1, 0);
    for (int v = 0; v < n_; ++v) {
      degree_[v] = g.degree(v);
      ++first_rank_[degree_[v]];
    }
    int above = 0;  // vertices of a higher degree
    for (int d = n_ - 1; d >= 0; --d) above += std::exchange(first_rank_[d], above);
  }

  /// One run, tie-broken by the next shuffle of rng; writes each vertex's
  /// color to `color` unless it is null and returns the number of colors.
  int run(Rng& rng, int* color) {
    const int n = n_;
    if (n == 0) return 0;
    const std::size_t size = static_cast<std::size_t>(n);
    tiebreak_.resize(size);
    std::iota(tiebreak_.begin(), tiebreak_.end(), 0);
    rng.shuffle(tiebreak_);
    at_position_.resize(size);
    for (int v = 0; v < n; ++v) at_position_[tiebreak_[v]] = v;
    next_rank_.assign(first_rank_.begin(), first_rank_.end());
    by_rank_.resize(size);
    rank_.resize(size);
    for (const int v : at_position_) {
      const int r = next_rank_[degree_[v]]++;
      by_rank_[r] = v;
      rank_[v] = r;
    }

    sat_.assign(size, 0);
    nbr_colors_.assign(size * words_, 0);
    levels_.assign(size * words_, 0);  // a saturation is below n
    uncolored_.assign(words_, 0);
    fill(level(0), n);
    fill(uncolored_.data(), n);
    int top = 0;  // no level above `top` holds a vertex

    int colors = 0;
    for (int step = 0; step < n; ++step) {
      int r;
      while ((r = first_one(level(top))) < 0) --top;
      clear(level(top), r);
      const int best = by_rank_[r];
      clear(uncolored_.data(), best);
      // Smallest color not used by a neighbor.
      const int c = first_zero(nbr(best));
      if (color != nullptr) color[best] = c;
      colors = std::max(colors, c + 1);
      const std::uint64_t* adjacent = g_->row(best);
      for (std::size_t w = 0; w < words_; ++w)
        for (std::uint64_t bits = adjacent[w] & uncolored_[w]; bits != 0; bits &= bits - 1) {
          const int u = static_cast<int>(w * 64) + std::countr_zero(bits);
          if (test(nbr(u), c)) continue;
          set(nbr(u), c);
          clear(level(sat_[u]), rank_[u]);
          set(level(++sat_[u]), rank_[u]);
          top = std::max(top, sat_[u]);
        }
    }
    return colors;
  }

 private:
  std::uint64_t* level(int s) { return &levels_[static_cast<std::size_t>(s) * words_]; }
  std::uint64_t* nbr(int v) { return &nbr_colors_[static_cast<std::size_t>(v) * words_]; }
  static void set(std::uint64_t* bits, int i) { bits[i >> 6] |= std::uint64_t{1} << (i & 63); }
  static void clear(std::uint64_t* bits, int i) { bits[i >> 6] &= ~(std::uint64_t{1} << (i & 63)); }
  static bool test(const std::uint64_t* bits, int i) { return (bits[i >> 6] >> (i & 63)) & 1; }
  /// Sets bits 0..n-1.
  static void fill(std::uint64_t* bits, int n) {
    std::size_t w = 0;
    for (; 64 * (w + 1) <= static_cast<std::size_t>(n); ++w) bits[w] = ~std::uint64_t{0};
    if (n % 64 != 0) bits[w] = (std::uint64_t{1} << (n % 64)) - 1;
  }
  int first_one(const std::uint64_t* bits) const {
    for (std::size_t w = 0; w < words_; ++w)
      if (bits[w] != 0) return static_cast<int>(w * 64) + std::countr_zero(bits[w]);
    return -1;
  }
  // A vertex has fewer neighbors than there are bits, so a zero exists.
  static int first_zero(const std::uint64_t* bits) {
    std::size_t w = 0;
    while (bits[w] == ~std::uint64_t{0}) ++w;
    return static_cast<int>(w * 64) + std::countr_one(bits[w]);
  }

  const BitGraph* g_ = nullptr;
  int n_ = 0;
  std::size_t words_ = 0;
  std::vector<int> degree_, first_rank_;  // per vertex; per degree
  std::vector<int> tiebreak_, at_position_, next_rank_, by_rank_, rank_, sat_;
  std::vector<std::uint64_t> nbr_colors_;  // per vertex: colors of its neighbors
  std::vector<std::uint64_t> levels_;      // per saturation: ranks of uncolored vertices
  std::vector<std::uint64_t> uncolored_;   // vertices
};

/// The runs of color_graph and color_count: DSATUR opts.restarts times, each
/// with the next shuffles of one seeded Rng, keeping the first run with the
/// fewest colors, whose colors go to `best` unless it is null. Under an
/// installed governor, restarts stop as soon as the deadline passes. The
/// first run always happens — a proper coloring is required for
/// correctness, only optimality is traded.
int color_runs(const BitGraph& g, const ColoringOptions& opts, std::vector<int>* best) {
  obs::add("coloring.calls");
  if (fault::armed()) fault::point("util.coloring");
  thread_local Dsatur dsatur;
  thread_local std::vector<int> colors;
  ResourceGovernor* gov = ResourceGovernor::current();
  dsatur.load(g);
  Rng rng(opts.seed);
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  if (best != nullptr) {
    best->resize(n);
    colors.resize(n);
  }
  int fewest = dsatur.run(rng, best != nullptr ? best->data() : nullptr);
  std::uint64_t dsatur_runs = 1;
  for (int r = 1; r < opts.restarts; ++r) {
    if (gov != nullptr && gov->deadline_expired()) {
      obs::add("coloring.restarts_skipped", static_cast<std::uint64_t>(opts.restarts - r));
      break;
    }
    const int count = dsatur.run(rng, best != nullptr ? colors.data() : nullptr);
    ++dsatur_runs;
    if (count < fewest) {
      fewest = count;
      if (best != nullptr) std::swap(*best, colors);
    }
  }
  obs::add("coloring.dsatur_runs", dsatur_runs);
  return fewest;
}

}  // namespace

Coloring color_graph(const BitGraph& g, const ColoringOptions& opts) {
  Coloring c;
  c.num_colors = color_runs(g, opts, &c.color);
  return c;
}

int color_count(const BitGraph& g, const ColoringOptions& opts) {
  return color_runs(g, opts, nullptr);
}

bool coloring_is_proper(const BitGraph& g, const Coloring& c) {
  const int n = g.num_vertices();
  if (static_cast<int>(c.color.size()) != n) return false;
  for (int v = 0; v < n; ++v) {
    if (c.color[v] < 0 || c.color[v] >= c.num_colors) return false;
    for (std::size_t w = 0; w < g.words(); ++w)
      for (std::uint64_t bits = g.row(v)[w]; bits != 0; bits &= bits - 1)
        if (c.color[w * 64 + std::countr_zero(bits)] == c.color[v]) return false;
  }
  return true;
}

}  // namespace mfd
