#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "testlib.h"
#include "util/coloring.h"
#include "util/graph.h"
#include "util/matching.h"
#include "util/rng.h"

namespace mfd {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit over 1000 draws
}

TEST(Rng, ShufflePermutes) {
  Rng rng(9);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  auto copy = v;
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, sorted);
}

// ---------------------------------------------------------------------------
// Graph
// ---------------------------------------------------------------------------

TEST(Graph, EdgesAndDegrees) {
  BitGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 1);  // duplicate ignored
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.degree(3), 0);
  EXPECT_EQ(g.row(1)[0], 0b101u);
}

TEST(BitGraph, RowsAcrossWordBoundaries) {
  BitGraph g(130);  // rows of 3 words
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 1);  // duplicate
  g.add_edge(63, 64);
  g.add_edge(129, 0);
  EXPECT_EQ(g.num_vertices(), 130);
  EXPECT_EQ(g.words(), 3u);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(64, 63));
  EXPECT_TRUE(g.has_edge(0, 129));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.row(63)[1], 1u);  // vertex 64 is bit 0 of word 1
  EXPECT_EQ(g.row(64)[0], std::uint64_t{1} << 63);
  EXPECT_EQ(g.row(0)[2], 2u);  // vertex 129 is bit 1 of word 2
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(3), 0);
  g.reset(5);
  EXPECT_EQ(g.words(), 1u);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g, BitGraph(5));
  EXPECT_NE(g, BitGraph(6));
}

// ---------------------------------------------------------------------------
// Coloring
// ---------------------------------------------------------------------------

TEST(Coloring, EmptyGraphOneColor) {
  BitGraph g(5);
  const Coloring c = color_graph(g);
  EXPECT_TRUE(coloring_is_proper(g, c));
  EXPECT_EQ(c.num_colors, 1);
  EXPECT_EQ(color_count(g), 1);
}

TEST(Coloring, CompleteGraphNeedsN) {
  BitGraph g(6);
  for (int u = 0; u < 6; ++u)
    for (int v = u + 1; v < 6; ++v) g.add_edge(u, v);
  const Coloring c = color_graph(g);
  EXPECT_TRUE(coloring_is_proper(g, c));
  EXPECT_EQ(c.num_colors, 6);
}

TEST(Coloring, OddCycleNeedsThree) {
  BitGraph g(5);
  for (int i = 0; i < 5; ++i) g.add_edge(i, (i + 1) % 5);
  const Coloring c = color_graph(g);
  EXPECT_TRUE(coloring_is_proper(g, c));
  EXPECT_EQ(c.num_colors, 3);
}

TEST(Coloring, BipartiteNeedsTwo) {
  BitGraph g(8);
  for (int u = 0; u < 4; ++u)
    for (int v = 4; v < 8; ++v) g.add_edge(u, v);
  const Coloring c = color_graph(g);
  EXPECT_TRUE(coloring_is_proper(g, c));
  EXPECT_EQ(c.num_colors, 2);
}

TEST(Coloring, ImproperColoringsAreRejected) {
  BitGraph g(70);
  g.add_edge(3, 68);
  Coloring c;
  c.color.assign(70, 0);
  c.num_colors = 2;
  c.color[68] = 1;
  EXPECT_TRUE(coloring_is_proper(g, c));
  c.color[68] = 0;  // the edge's ends share a color
  EXPECT_FALSE(coloring_is_proper(g, c));
  c.color[68] = 2;  // out of range
  EXPECT_FALSE(coloring_is_proper(g, c));
  c.color.pop_back();
  EXPECT_FALSE(coloring_is_proper(g, c));
}

class ColoringRandom : public ::testing::TestWithParam<int> {};

TEST_P(ColoringRandom, MatchesBruteForceOnSmallGraphs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = rng.range(1, 9);
  BitGraph g(n);
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v)
      if (rng.chance(2, 5)) g.add_edge(u, v);
  const Coloring c = color_graph(g);
  ASSERT_TRUE(coloring_is_proper(g, c));
  EXPECT_EQ(c.num_colors, test::brute_force_chromatic_number(g))
      << "graph with " << n << " vertices, seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColoringRandom, ::testing::Range(0, 40));

TEST(Coloring, LargeGraphStillProper) {
  Rng rng(123);
  BitGraph g(120);
  for (int u = 0; u < 120; ++u)
    for (int v = u + 1; v < 120; ++v)
      if (rng.chance(1, 10)) g.add_edge(u, v);
  const Coloring c = color_graph(g);
  EXPECT_TRUE(coloring_is_proper(g, c));
  EXPECT_GE(c.num_colors, 2);
}

/// The O(n^2) DSATUR that the bitset version replaced, kept as the
/// reference: the highest saturation first, ties by degree, then by a
/// shuffled position.
Coloring reference_dsatur(const BitGraph& g, Rng& rng) {
  const int n = g.num_vertices();
  Coloring result;
  result.color.assign(n, -1);
  if (n == 0) return result;

  std::vector<int> tiebreak(n);
  for (int v = 0; v < n; ++v) tiebreak[v] = v;
  rng.shuffle(tiebreak);

  std::vector<std::vector<bool>> sat(n);
  std::vector<int> sat_deg(n, 0);

  for (int step = 0; step < n; ++step) {
    int best = -1;
    for (int v = 0; v < n; ++v) {
      if (result.color[v] != -1) continue;
      if (best == -1 || sat_deg[v] > sat_deg[best] ||
          (sat_deg[v] == sat_deg[best] &&
           (g.degree(v) > g.degree(best) ||
            (g.degree(v) == g.degree(best) && tiebreak[v] < tiebreak[best]))))
        best = v;
    }
    int c = 0;
    while (c < static_cast<int>(sat[best].size()) && sat[best][c]) ++c;
    result.color[best] = c;
    result.num_colors = std::max(result.num_colors, c + 1);
    for (int u = 0; u < n; ++u) {
      if (!g.has_edge(best, u) || result.color[u] != -1) continue;
      if (static_cast<int>(sat[u].size()) <= c) sat[u].resize(c + 1, false);
      if (!sat[u][c]) {
        sat[u][c] = true;
        ++sat_deg[u];
      }
    }
  }
  return result;
}

TEST(Coloring, DsaturMatchesReferenceColorByColor) {
  // color_graph is DSATUR with restarts, keeping the first coloring with
  // the fewest colors; it must reproduce the reference run for run, vertex
  // by vertex, and color_count must return its color count. Besides random
  // sizes, rows of one word (at most 64 vertices) and of several words are
  // both run at the sizes around each word boundary, and restarts cover the
  // bound-set score's 2 and dc_assign's default 8.
  const int densities[] = {5, 10, 20, 35, 50, 70, 90};  // percent
  const int boundary_sizes[] = {63, 64, 65, 127, 128, 129};
  for (int i = 0; i < 602; ++i) {
    Rng rng(static_cast<std::uint64_t>(i) * 2654435761u + 17);
    const int n = i < 40 ? i % 8 + 1 : i < 560 ? rng.range(1, 256) : boundary_sizes[(i - 560) / 7];
    const int density = densities[i % 7];
    BitGraph g(n);
    for (int u = 0; u < n; ++u)
      for (int v = u + 1; v < n; ++v)
        if (rng.chance(static_cast<std::uint32_t>(density), 100)) g.add_edge(u, v);
    for (const int restarts : {1, 2, 8}) {
      ColoringOptions opts;
      opts.restarts = restarts;
      opts.seed = static_cast<std::uint64_t>(i % 5) + 1;
      Rng ref_rng(opts.seed);
      Coloring expected = reference_dsatur(g, ref_rng);
      for (int r = 1; r < restarts; ++r) {
        Coloring c = reference_dsatur(g, ref_rng);
        if (c.num_colors < expected.num_colors) expected = c;
      }
      const Coloring got = color_graph(g, opts);
      ASSERT_EQ(got.color, expected.color)
          << "graph " << i << ": " << n << " vertices, density " << density
          << "%, restarts " << restarts;
      ASSERT_EQ(got.num_colors, expected.num_colors);
      ASSERT_TRUE(coloring_is_proper(g, got));
      ASSERT_EQ(color_count(g, opts), expected.num_colors)
          << "graph " << i << ", restarts " << restarts;
    }
  }
}

// ---------------------------------------------------------------------------
// Matching
// ---------------------------------------------------------------------------

TEST(Matching, PathGraph) {
  BitGraph g(4);  // path 0-1-2-3: perfect matching {01, 23}
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const auto mate = maximum_matching(g);
  EXPECT_TRUE(matching_is_valid(g, mate));
  EXPECT_EQ(matching_size(mate), 2);
}

TEST(Matching, OddCycleLeavesOneExposed) {
  BitGraph g(5);
  for (int i = 0; i < 5; ++i) g.add_edge(i, (i + 1) % 5);
  const auto mate = maximum_matching(g);
  EXPECT_TRUE(matching_is_valid(g, mate));
  EXPECT_EQ(matching_size(mate), 2);
}

TEST(Matching, BlossomRequired) {
  // Classic case: triangle with a pendant path; greedy matching on the
  // triangle first would block the augmenting path through the blossom.
  BitGraph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);  // blossom
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  const auto mate = maximum_matching(g);
  EXPECT_TRUE(matching_is_valid(g, mate));
  EXPECT_EQ(matching_size(mate), 3);
}

TEST(Matching, Petersen) {
  // The Petersen graph has a perfect matching (5 pairs) and plenty of odd
  // cycles to exercise blossom contraction.
  BitGraph g(10);
  for (int i = 0; i < 5; ++i) {
    g.add_edge(i, (i + 1) % 5);          // outer cycle
    g.add_edge(5 + i, 5 + (i + 2) % 5);  // inner pentagram
    g.add_edge(i, 5 + i);                // spokes
  }
  const auto mate = maximum_matching(g);
  EXPECT_TRUE(matching_is_valid(g, mate));
  EXPECT_EQ(matching_size(mate), 5);
}

class MatchingRandom : public ::testing::TestWithParam<int> {};

TEST_P(MatchingRandom, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  const int n = rng.range(2, 9);
  BitGraph g(n);
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v)
      if (rng.chance(1, 2)) g.add_edge(u, v);
  const auto mate = maximum_matching(g);
  ASSERT_TRUE(matching_is_valid(g, mate));
  EXPECT_EQ(matching_size(mate), test::brute_force_max_matching(g))
      << "seed " << GetParam() << ", n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchingRandom, ::testing::Range(0, 60));

TEST(Matching, EmptyAndSingletonGraphs) {
  EXPECT_EQ(matching_size(maximum_matching(BitGraph(0))), 0);
  EXPECT_EQ(matching_size(maximum_matching(BitGraph(1))), 0);
  BitGraph g(3);  // no edges
  const auto mate = maximum_matching(g);
  EXPECT_TRUE(matching_is_valid(g, mate));
  EXPECT_EQ(matching_size(mate), 0);
}

TEST(Matching, CompleteGraphsPairEveryone) {
  for (const int n : {2, 4, 6, 7}) {
    BitGraph g(n);
    for (int u = 0; u < n; ++u)
      for (int v = u + 1; v < n; ++v) g.add_edge(u, v);
    const auto mate = maximum_matching(g);
    EXPECT_TRUE(matching_is_valid(g, mate));
    EXPECT_EQ(matching_size(mate), n / 2);
  }
}

/// Adds the cycle over vertices first..first+len-1 (len >= 3), or the path
/// over them when `closed` is false.
void add_chain(BitGraph& g, int first, int len, bool closed) {
  for (int i = 0; i + 1 < len; ++i) g.add_edge(first + i, first + i + 1);
  if (closed) g.add_edge(first + len - 1, first);
}

/// Adds a Petersen graph over vertices first..first+9.
void add_petersen(BitGraph& g, int first) {
  for (int i = 0; i < 5; ++i) {
    g.add_edge(first + i, first + (i + 1) % 5);
    g.add_edge(first + 5 + i, first + 5 + (i + 2) % 5);
    g.add_edge(first + i, first + 5 + i);
  }
}

TEST(Matching, RowsAcrossWordBoundaries) {
  // Graphs with known maximum matchings whose rows span one to three
  // words; vertices are relabelled by a seeded permutation, so edges cross
  // the word boundaries in both directions.
  Rng rng(61);
  for (const int n : {63, 64, 65, 129}) {
    struct Case {
      const char* name;
      BitGraph g;
      int expected;
    };
    std::vector<Case> cases;
    BitGraph cycle(n);  // an even cycle: n/2 pairs; an odd one: (n-1)/2
    add_chain(cycle, 0, n, true);
    cases.push_back({"cycle", cycle, n / 2});
    BitGraph path(n);
    add_chain(path, 0, n, false);
    cases.push_back({"path", path, n / 2});
    BitGraph petersens(n);  // disjoint Petersen copies, then a path on the rest
    const int copies = n / 10;
    for (int c = 0; c < copies; ++c) add_petersen(petersens, 10 * c);
    add_chain(petersens, 10 * copies, n - 10 * copies, false);
    cases.push_back({"petersen", petersens, 5 * copies + (n - 10 * copies) / 2});
    BitGraph evens(n);  // disjoint 6-cycles, then a path on the rest
    for (int c = 0; c < n / 6; ++c) add_chain(evens, 6 * c, 6, true);
    add_chain(evens, 6 * (n / 6), n % 6, false);
    cases.push_back({"6-cycles", evens, 3 * (n / 6) + (n % 6) / 2});

    std::vector<int> perm(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
    rng.shuffle(perm);
    for (const Case& c : cases) {
      BitGraph shuffled(n);
      for (int u = 0; u < n; ++u)
        for (int v = u + 1; v < n; ++v)
          if (c.g.has_edge(u, v))
            shuffled.add_edge(perm[static_cast<std::size_t>(u)], perm[static_cast<std::size_t>(v)]);
      ASSERT_EQ(shuffled.num_edges(), c.g.num_edges());
      for (const BitGraph* g : {&c.g, static_cast<const BitGraph*>(&shuffled)}) {
        const auto mate = maximum_matching(*g);
        ASSERT_TRUE(matching_is_valid(*g, mate)) << c.name << ", n=" << n;
        EXPECT_EQ(matching_size(mate), c.expected) << c.name << ", n=" << n;
      }
    }
  }
}

TEST(Coloring, SingleVertex) {
  BitGraph g(1);
  const Coloring c = color_graph(g);
  EXPECT_TRUE(coloring_is_proper(g, c));
  EXPECT_EQ(c.num_colors, 1);
}

TEST(Coloring, CrownGraphNeedsExactSearch) {
  // Crown graph S_3^0 (K3,3 minus a perfect matching) is 2-chromatic but
  // greedy orders can use 3 colors, so finding 2 takes a search that is
  // exact here: DSATUR's saturation rule colors every bipartite graph
  // optimally.
  BitGraph g(6);
  for (int u = 0; u < 3; ++u)
    for (int v = 0; v < 3; ++v)
      if (u != v) g.add_edge(u, 3 + v);
  const Coloring c = color_graph(g);
  EXPECT_TRUE(coloring_is_proper(g, c));
  EXPECT_EQ(c.num_colors, 2);
}

}  // namespace
}  // namespace mfd
