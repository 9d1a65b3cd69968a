// Differential tests of the truth-table kernel (src/tt): every operation
// against a minterm-by-minterm reference and the BDD package it converts to
// and from, and bound-set scores from output views on truth tables (outputs
// of at most tt::kMaxVars variables) against reference views, which score
// on BDD cofactors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bdd/bdd.h"
#include "core/errors.h"
#include "decomp/boundset.h"
#include "isf/isf.h"
#include "tt/tt.h"
#include "util/rng.h"

namespace mfd {
namespace {

using bdd::Bdd;
using bdd::Edge;
using bdd::Manager;

/// A random permutation of 0..n-1.
std::vector<int> random_permutation(Rng& rng, int n) {
  std::vector<int> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  rng.shuffle(p);
  return p;
}

/// `count` distinct variables out of 0..n-1, in random order.
std::vector<int> random_vars(Rng& rng, int n, int count) {
  std::vector<int> p = random_permutation(rng, n);
  p.resize(static_cast<std::size_t>(count));
  return p;
}

/// Random bits, one per minterm over `n` variables.
std::vector<std::uint8_t> random_bits(Rng& rng, int n, std::uint32_t ones_per_8 = 4) {
  std::vector<std::uint8_t> bits(std::size_t{1} << n);
  for (auto& b : bits) b = rng.chance(ones_per_8, 8) ? 1 : 0;
  return bits;
}

/// The function whose value at an assignment is bits[idx], bit j of idx being
/// the value of vars[j]. Built by Shannon expansion in the manager's current
/// level order, one `mk` per node, so 16-variable tables stay cheap.
Bdd from_bits(Manager& m, const std::vector<std::uint8_t>& bits, const std::vector<int>& vars) {
  std::vector<std::size_t> by_level(vars.size());
  for (std::size_t j = 0; j < vars.size(); ++j) by_level[j] = j;
  std::sort(by_level.begin(), by_level.end(), [&](std::size_t a, std::size_t b) {
    return m.level_of_var(vars[a]) < m.level_of_var(vars[b]);
  });
  Manager::AutoGcPause pause(m);
  auto rec = [&](auto&& self, std::size_t depth, std::size_t idx) -> Edge {
    if (depth == vars.size()) return bits[idx] != 0 ? bdd::kTrue : bdd::kFalse;
    const std::size_t j = by_level[depth];
    const Edge lo = self(self, depth + 1, idx);
    const Edge hi = self(self, depth + 1, idx | (std::size_t{1} << j));
    return m.mk(vars[j], lo, hi);
  };
  return m.wrap(rec(rec, 0, 0));
}

/// `support` sorted by level, deepest first: the variable order of tt::from_bdd.
std::vector<int> deepest_first(const Manager& m, std::vector<int> support) {
  std::sort(support.begin(), support.end(), [&](int a, int b) {
    return m.level_of_var(a) > m.level_of_var(b);
  });
  return support;
}

/// Every minterm of `t` against the BDD it was built from.
void expect_matches_bdd(const Manager& m, Edge f, const tt::TruthTable& t,
                        const std::vector<int>& vars) {
  std::vector<bool> assignment(static_cast<std::size_t>(m.num_vars()), false);
  for (std::uint64_t mt = 0; mt < (std::uint64_t{1} << vars.size()); ++mt) {
    for (std::size_t j = 0; j < vars.size(); ++j)
      assignment[static_cast<std::size_t>(vars[j])] = ((mt >> j) & 1) != 0;
    ASSERT_EQ(t[mt], m.eval(f, assignment)) << "minterm " << mt << " of " << vars.size();
  }
}

// ---------------------------------------------------------------------------
// Part 1: the kernel
// ---------------------------------------------------------------------------

TEST(TruthTable, FromBddMatchesEveryMintermUnderSiftedOrder) {
  Rng rng(20);
  for (int n = 0; n <= tt::kMaxVars; ++n) {
    for (int trial = 0; trial < (n <= 12 ? 3 : 1); ++trial) {
      const int total = n + 2;  // two manager variables stay outside the table
      Manager m(total);
      m.set_order(random_permutation(rng, total));
      const std::vector<int> vars = random_vars(rng, total, n);
      // Half of the functions ignore some table variables, so nodes skip
      // levels and sub-tables repeat.
      std::vector<int> used = vars;
      if (trial % 2 == 1 && n > 1) used.resize(static_cast<std::size_t>(rng.range(1, n - 1)));
      const Bdd f = from_bits(m, random_bits(rng, static_cast<int>(used.size())), used);
      const Bdd g = from_bits(m, random_bits(rng, static_cast<int>(used.size()), 1), used);
      m.sift();
      const std::vector<int> order = deepest_first(m, vars);
      const std::vector<Edge> roots{f.id(), !f.id(), g.id(), bdd::kTrue, bdd::kFalse};
      const std::vector<tt::TruthTable> tables = tt::from_bdd(m, roots, order);
      ASSERT_EQ(tables.size(), roots.size());
      for (std::size_t r = 0; r < roots.size(); ++r) {
        EXPECT_EQ(tables[r].num_vars(), n);
        EXPECT_EQ(tables[r].num_words(), tt::num_words(n));
        expect_matches_bdd(m, roots[r], tables[r], order);
      }
      EXPECT_TRUE(tables[3].is_constant(true));
      EXPECT_TRUE(tables[4].is_constant(false));
    }
  }
}

TEST(TruthTable, FromBddRejectsTooManyOrMissingVariables) {
  Manager m(tt::kMaxVars + 1);
  std::vector<int> all(static_cast<std::size_t>(tt::kMaxVars + 1));
  for (int v = 0; v <= tt::kMaxVars; ++v) all[static_cast<std::size_t>(v)] = tt::kMaxVars - v;
  EXPECT_THROW(tt::from_bdd(m, {bdd::kTrue}, all), Error);
  const Bdd f = m.var(0) & m.var(1);
  EXPECT_THROW(tt::from_bdd(m, {f.id()}, {1}), Error);
}

TEST(TruthTable, SwapVarsExchangesMintermBits) {
  Rng rng(21);
  for (int n = 2; n <= tt::kMaxVars; ++n) {
    Manager m(n);
    std::vector<int> vars(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) vars[static_cast<std::size_t>(j)] = n - 1 - j;
    const Bdd f = from_bits(m, random_bits(rng, n), vars);
    const tt::TruthTable t = tt::from_bdd(m, {f.id()}, vars).front();
    for (int trial = 0; trial < 4; ++trial) {
      const int a = rng.range(0, n - 1), b = rng.range(0, n - 1);
      tt::TruthTable s = t;
      s.swap_vars(a, b);
      for (std::uint64_t mt = 0; mt < (std::uint64_t{1} << n); ++mt) {
        const std::uint64_t ba = (mt >> a) & 1, bb = (mt >> b) & 1;
        const std::uint64_t swapped =
            (mt & ~((std::uint64_t{1} << a) | (std::uint64_t{1} << b))) | (ba << b) | (bb << a);
        ASSERT_EQ(s[mt], t[swapped]) << "n=" << n << " a=" << a << " b=" << b;
      }
      s.swap_vars(a, b);
      EXPECT_EQ(s, t);
    }
  }
}

TEST(TruthTable, BlocksAreTheTopVariableCofactors) {
  Rng rng(22);
  for (int n = 0; n <= 12; ++n) {
    Manager m(n);
    std::vector<int> vars(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) vars[static_cast<std::size_t>(j)] = n - 1 - j;
    const Bdd f = from_bits(m, random_bits(rng, n), vars);
    const tt::TruthTable t = tt::from_bdd(m, {f.id()}, vars).front();
    for (int w = 0; w <= n; ++w) {
      const tt::Blocks blocks(t, w);
      for (std::size_t b = 0; b < (std::size_t{1} << (n - w)); ++b)
        for (std::uint64_t i = 0; i < (std::uint64_t{1} << w); ++i)
          ASSERT_EQ((blocks.word(b, i >> 6) >> (i & 63)) & 1,
                    static_cast<std::uint64_t>(t[(b << w) | i]));
    }
  }
}

/// A random table over n variables, set minterm by minterm.
tt::TruthTable random_tt(Rng& rng, int n, std::uint32_t ones_per_8 = 4) {
  const std::vector<std::uint8_t> bits = random_bits(rng, n, ones_per_8);
  tt::TruthTable t(n);
  for (std::uint64_t mt = 0; mt < bits.size(); ++mt) t.set(mt, bits[mt] != 0);
  return t;
}

/// The table over n variables whose minterm mt has the value value(mt),
/// built one minterm at a time: the reference every operation is held to.
/// Comparing whole tables with == also checks the repetition of tables
/// narrower than a word.
template <typename Value>
tt::TruthTable reference(int n, Value value) {
  tt::TruthTable t(n);
  for (std::uint64_t mt = 0; mt < t.num_minterms(); ++mt) t.set(mt, value(mt));
  return t;
}

/// Minterm mt of n-1 variables with a bit of the given value inserted at
/// position j (the minterm of n variables it stands for).
std::uint64_t insert_bit(std::uint64_t mt, int j, bool value) {
  const std::uint64_t low = mt & ((std::uint64_t{1} << j) - 1);
  return ((mt ^ low) << 1) | (value ? std::uint64_t{1} << j : 0) | low;
}

TEST(TruthTable, ConstructorsAndSetMatchEveryMinterm) {
  Rng rng(25);
  for (int n = 0; n <= tt::kMaxVars; ++n) {
    const std::vector<std::uint8_t> bits = random_bits(rng, n);
    tt::TruthTable t(n, true);
    for (std::uint64_t mt = 0; mt < bits.size(); ++mt) t.set(mt, bits[mt] != 0);
    ASSERT_EQ(t.num_minterms(), bits.size());
    for (std::uint64_t mt = 0; mt < bits.size(); ++mt) ASSERT_EQ(t[mt], bits[mt] != 0);
    if (n <= 6) {
      std::uint64_t word = 0;
      for (std::uint64_t mt = 0; mt < bits.size(); ++mt) word |= std::uint64_t{bits[mt]} << mt;
      EXPECT_EQ(tt::TruthTable::from_word(n, word), t) << n;
    }
    for (int j = 0; j < n; ++j)
      EXPECT_EQ(tt::TruthTable::var(n, j),
                reference(n, [j](std::uint64_t mt) { return ((mt >> j) & 1) != 0; }));
    EXPECT_EQ(tt::TruthTable(n, true), reference(n, [](std::uint64_t) { return true; }));
    EXPECT_TRUE(tt::TruthTable(n, true).is_constant(true));
  }
  EXPECT_THROW(tt::TruthTable(tt::kMaxVars + 1), Error);
  EXPECT_THROW(tt::TruthTable(-1), Error);
}

TEST(TruthTable, BooleanOperatorsMatchEveryMinterm) {
  Rng rng(26);
  for (int n = 0; n <= tt::kMaxVars; ++n) {
    const tt::TruthTable a = random_tt(rng, n), b = random_tt(rng, n, 2);
    EXPECT_EQ(~a, reference(n, [&](std::uint64_t mt) { return !a[mt]; }));
    EXPECT_EQ(a & b, reference(n, [&](std::uint64_t mt) { return a[mt] && b[mt]; }));
    EXPECT_EQ(a | b, reference(n, [&](std::uint64_t mt) { return a[mt] || b[mt]; }));
    EXPECT_EQ(a ^ b, reference(n, [&](std::uint64_t mt) { return a[mt] != b[mt]; }));
  }
}

TEST(TruthTable, DependsOnFlipVarAndCofactorMatchEveryMinterm) {
  Rng rng(27);
  for (int n = 1; n <= tt::kMaxVars; ++n) {
    const tt::TruthTable t = random_tt(rng, n, n <= 4 ? 2 : 4);
    for (int j = 0; j < n; ++j) {
      const std::uint64_t bit = std::uint64_t{1} << j;
      bool differs = false;
      for (std::uint64_t mt = 0; mt < t.num_minterms(); ++mt) differs |= t[mt] != t[mt ^ bit];
      EXPECT_EQ(t.depends_on(j), differs) << "n=" << n << " j=" << j;
      const tt::TruthTable ignores = reference(n, [&](std::uint64_t mt) { return t[mt & ~bit]; });
      EXPECT_FALSE(ignores.depends_on(j)) << "n=" << n << " j=" << j;

      tt::TruthTable flipped = t;
      flipped.flip_var(j);
      EXPECT_EQ(flipped, reference(n, [&](std::uint64_t mt) { return t[mt ^ bit]; }))
          << "n=" << n << " j=" << j;

      for (const bool value : {false, true}) {
        const tt::TruthTable c = t.cofactor(j, value);
        EXPECT_EQ(c.num_vars(), n - 1);
        EXPECT_EQ(c, reference(n - 1, [&](std::uint64_t mt) { return t[insert_bit(mt, j, value)]; }))
            << "n=" << n << " j=" << j << " value=" << value;
      }
    }
  }
}

TEST(TruthTable, IdentifyMatchesEveryMinterm) {
  Rng rng(28);
  for (int n = 2; n <= tt::kMaxVars; ++n) {
    const tt::TruthTable t = random_tt(rng, n);
    for (int trial = 0; trial < 6; ++trial) {
      const int j = rng.range(0, n - 2), k = rng.range(j + 1, n - 1);
      EXPECT_EQ(t.identify(j, k), reference(n - 1, [&](std::uint64_t mt) {
                  return t[insert_bit(mt, k, ((mt >> j) & 1) != 0)];
                }))
          << "n=" << n << " j=" << j << " k=" << k;
    }
  }
}

TEST(TruthTable, ComposeMatchesEveryMinterm) {
  Rng rng(29);
  for (int n = 0; n <= tt::kMaxVars; ++n) {
    for (int arity = 0; arity <= 6; ++arity) {
      const tt::TruthTable f = random_tt(rng, arity);
      std::vector<tt::TruthTable> args;
      for (int j = 0; j < arity; ++j) {
        const int shape = rng.range(0, 3);
        if (shape == 0) args.emplace_back(n, rng.flip());
        else if (shape == 1 && n > 0) args.push_back(tt::TruthTable::var(n, rng.range(0, n - 1)));
        else args.push_back(random_tt(rng, n));
      }
      EXPECT_EQ(tt::compose(f, args, n), reference(n, [&](std::uint64_t mt) {
                  std::uint64_t idx = 0;
                  for (int j = 0; j < arity; ++j)
                    if (args[static_cast<std::size_t>(j)][mt]) idx |= std::uint64_t{1} << j;
                  return f[idx];
                }))
          << "n=" << n << " arity=" << arity;
    }
  }
}

TEST(TruthTable, FromBddEmitsTheCallersVariableOrderOnASiftedManager) {
  Rng rng(30);
  for (int n = 0; n <= tt::kMaxVars; ++n) {
    const int total = n + 2;
    Manager m(total);
    m.set_order(random_permutation(rng, total));
    const std::vector<int> vars = random_vars(rng, total, n);  // any order
    const std::vector<std::uint8_t> bits = random_bits(rng, n);
    const Bdd f = from_bits(m, bits, vars);
    m.sift();
    const std::vector<tt::TruthTable> t = tt::from_bdd(m, {f.id(), !f.id()}, vars);
    const tt::TruthTable want = reference(n, [&](std::uint64_t mt) { return bits[mt] != 0; });
    EXPECT_EQ(t[0], want) << n;
    EXPECT_EQ(t[1], ~want) << n;
  }
}

/// A random table over n variables for the BDD builder: a constant, a
/// random table (sparse to dense), or one that ignores a random subset of
/// its variables (each minterm takes the value of the minterm with the
/// ignored bits cleared).
tt::TruthTable random_lut_table(Rng& rng, int n) {
  const int shape = rng.range(0, 3);
  if (shape == 0) return tt::TruthTable(n, rng.flip());
  const tt::TruthTable t = random_tt(rng, n, static_cast<std::uint32_t>(rng.range(1, 7)));
  if (shape == 1) return t;
  std::uint64_t ignored = 0;
  for (int j = 0; j < n; ++j)
    if (rng.flip()) ignored |= std::uint64_t{1} << j;
  return reference(n, [&](std::uint64_t mt) { return t[mt & ~ignored]; });
}

TEST(TruthTable, ToBddMatchesItsFaninsBdds) {
  Rng rng(31);
  for (int n = 0; n <= tt::kMaxVars; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      // Projection fanins on a sifted manager: the result is the function
      // the table describes over those variables.
      const int total = n + 2;
      Manager m(total);
      m.set_order(random_permutation(rng, total));
      m.sift();
      const std::vector<int> vars = random_vars(rng, total, n);
      const tt::TruthTable t = random_lut_table(rng, n);
      std::vector<std::uint8_t> bits(t.num_minterms());
      for (std::uint64_t mt = 0; mt < t.num_minterms(); ++mt) bits[mt] = t[mt] ? 1 : 0;
      std::vector<std::uint64_t> calls(static_cast<std::size_t>(n));
      const Bdd f = tt::to_bdd(t, m, [&](int j) {
        ++calls[static_cast<std::size_t>(j)];
        return m.var(vars[static_cast<std::size_t>(j)]);
      });
      EXPECT_EQ(f, from_bits(m, bits, vars)) << n;

      // The call contract: no fanin call for a variable the table ignores
      // (so none for a constant table), and at most 2^n - 1 in all.
      std::uint64_t all_calls = 0;
      for (int j = 0; j < n; ++j) {
        all_calls += calls[static_cast<std::size_t>(j)];
        if (!t.depends_on(j)) {
          EXPECT_EQ(calls[static_cast<std::size_t>(j)], 0u) << "n=" << n << " ignored var " << j;
        }
      }
      if (t.is_constant(false) || t.is_constant(true)) {
        EXPECT_EQ(all_calls, 0u) << n;
      }
      EXPECT_LE(all_calls, (std::uint64_t{1} << n) - 1) << n;

      // Function fanins: the result is the table composed with the fanins.
      Manager g(5);
      std::vector<Bdd> fanins;
      for (int j = 0; j < n; ++j)
        fanins.push_back(from_bits(g, random_bits(rng, 5), {0, 1, 2, 3, 4}));
      const Bdd h = tt::to_bdd(t, g, [&](int j) { return fanins[static_cast<std::size_t>(j)]; });
      std::vector<bool> x(5);
      for (std::uint32_t a = 0; a < 32; ++a) {
        for (int v = 0; v < 5; ++v) x[static_cast<std::size_t>(v)] = ((a >> v) & 1) != 0;
        std::uint64_t idx = 0;
        for (int j = 0; j < n; ++j)
          if (g.eval(fanins[static_cast<std::size_t>(j)].id(), x)) idx |= std::uint64_t{1} << j;
        ASSERT_EQ(g.eval(h.id(), x), t[idx]) << "n=" << n << " assignment " << a;
      }
    }
  }
}

/// The BDD of t with variable j read as fanins[j], built as the OR, in
/// minterm order, of one cube per on-set minterm (the AND of every fanin or
/// its complement): the reference tt::to_bdd must agree with.
Bdd sum_of_minterm_cubes(const tt::TruthTable& t, Manager& m, const std::vector<Bdd>& fanins) {
  Bdd f = m.bdd_false();
  for (std::uint64_t mt = 0; mt < t.num_minterms(); ++mt) {
    if (!t[mt]) continue;
    Bdd cube = m.bdd_true();
    for (int j = 0; j < t.num_vars(); ++j) {
      const Bdd& in = fanins[static_cast<std::size_t>(j)];
      cube &= ((mt >> j) & 1) ? in : !in;
    }
    f |= cube;
  }
  return f;
}

TEST(TruthTable, ToBddMatchesASumOfMintermCubes) {
  Rng rng(32);
  for (int n = 0; n <= tt::kMaxVars; ++n) {
    for (int trial = 0; trial < (n <= 10 ? 8 : 4); ++trial) {
      const int total = n + 3;
      Manager m(total);
      m.set_order(random_permutation(rng, total));
      // Projection fanins on odd trials. On even ones a mix of constants,
      // literals, repeats of an earlier fanin and random functions over a
      // pool of at most eight variables, so halves that differ as tables
      // can still build the same BDD.
      std::vector<Bdd> fanins;
      const std::vector<int> vars = random_vars(rng, total, n);
      const std::vector<int> pool = random_vars(rng, total, std::min(total, 8));
      for (int j = 0; j < n; ++j) {
        const int v = vars[static_cast<std::size_t>(j)];
        if (trial % 2 == 1) {
          fanins.push_back(m.var(v));
          continue;
        }
        switch (rng.range(0, 4)) {
          case 0: fanins.push_back(m.constant(rng.flip())); break;
          case 1: fanins.push_back(m.literal(v, rng.flip())); break;
          case 2: fanins.push_back(j > 0 ? fanins[static_cast<std::size_t>(rng.range(0, j - 1))]
                                         : m.var(v));
                  break;
          default: {
            const std::vector<int> sub =
                random_vars(rng, static_cast<int>(pool.size()), rng.range(1, 4));
            std::vector<int> fvars;
            for (int i : sub) fvars.push_back(pool[static_cast<std::size_t>(i)]);
            fanins.push_back(from_bits(m, random_bits(rng, static_cast<int>(fvars.size())), fvars));
          }
        }
      }
      // Sift with a random function of the pool held, so the order is a
      // sifted one whatever the fanins are.
      const Bdd anchor =
          from_bits(m, random_bits(rng, static_cast<int>(pool.size())), pool);
      m.sift();
      const tt::TruthTable t = random_lut_table(rng, n);
      const Bdd want = sum_of_minterm_cubes(t, m, fanins);
      const Bdd got =
          tt::to_bdd(t, m, [&](int j) -> const Bdd& { return fanins[static_cast<std::size_t>(j)]; });
      EXPECT_EQ(got, want) << "n=" << n << " trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// Part 2: the bound-set scorer
// ---------------------------------------------------------------------------

/// A random output over a random subset of `n` inputs. Shapes: complete,
/// incompletely specified (sparse to heavy don't cares), constant, all
/// don't-care; a `wide` output is the parity of all n > tt::kMaxVars
/// inputs plus narrow pieces, so its BDD stays small.
Isf random_output(Manager& m, Rng& rng, int n, bool wide) {
  if (wide) {
    auto piece = [&](int width) {
      const std::vector<int> vars = random_vars(rng, n, width);
      return from_bits(m, random_bits(rng, width), vars);
    };
    Bdd on = (piece(6) & piece(6)) ^ piece(5);
    for (int v = 0; v < n; ++v) on ^= m.var(v);
    const Bdd care = rng.flip() ? m.bdd_true() : (piece(6) | piece(6));
    return Isf(on, care);
  }
  const int shape = rng.range(0, 9);
  if (shape == 0) return Isf::completely_specified(m.constant(rng.flip()));
  if (shape == 1) return Isf(m.bdd_false(), m.bdd_false());  // all don't care
  const int width = rng.range(1, std::min(n, shape == 3 && n <= tt::kMaxVars ? n : 10));
  const std::vector<int> vars = random_vars(rng, n, width);
  const Bdd on = from_bits(m, random_bits(rng, width), vars);
  if (shape <= 5) return Isf::completely_specified(on);
  const Bdd care = from_bits(m, random_bits(rng, width, static_cast<std::uint32_t>(shape - 3)), vars);
  return Isf(on, care);
}

TEST(TruthTableScorer, MatchesBddScorerOnRandomSpecs) {
  Rng rng(23);
  int mixed = 0, isf_on_tables = 0, unsorted = 0, outside = 0;
  for (int spec = 0; spec < 60; ++spec) {
    const int n = spec % 4 == 3 ? rng.range(tt::kMaxVars + 1, 20) : rng.range(2, tt::kMaxVars);
    Manager m(n);
    m.set_order(random_permutation(rng, n));
    std::vector<Isf> fns;
    const int outputs = rng.range(1, 5);
    for (int o = 0; o < outputs; ++o) {
      if (o > 0 && rng.chance(1, 8)) {
        fns.push_back(fns[static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(o)))]);
        continue;
      }
      fns.push_back(random_output(m, rng, n, n > tt::kMaxVars && o == 0));
    }
    m.sift();

    std::vector<OutputView> views = output_views(fns);
    for (int cand = 0; cand < 12; ++cand) {
      const int p = rng.range(2, std::min(6, n));
      const std::vector<int> bound = random_vars(rng, n, p);
      const std::uint64_t seed = rng.below(4) + 1;
      const BoundSetChoice on_tt = evaluate_bound_set(views, bound, seed);
      const BoundSetChoice on_bdd = evaluate_bound_set(fns, bound, seed);
      ASSERT_EQ(on_tt.benefit, on_bdd.benefit) << "spec " << spec << " candidate " << cand;
      ASSERT_EQ(on_tt.sharing_gap, on_bdd.sharing_gap) << "spec " << spec << " candidate " << cand;
      ASSERT_EQ(on_tt.sum_r, on_bdd.sum_r) << "spec " << spec << " candidate " << cand;
      ASSERT_EQ(on_tt.r_per_output, on_bdd.r_per_output) << "spec " << spec << " candidate " << cand;
      EXPECT_EQ(on_tt.vars, bound);

      // Coverage of the cases the scorer must get right.
      bool cut_tt = false, cut_bdd = false;
      for (std::size_t i = 0; i < fns.size(); ++i) {
        const std::vector<int>& support = views[i].support();
        std::size_t cut = 0;
        for (int v : bound)
          if (std::binary_search(support.begin(), support.end(), v)) ++cut;
        if (cut == 0) continue;
        if (cut < bound.size()) ++outside;
        const bool on_tables = views[i].on_tables();
        (on_tables ? cut_tt : cut_bdd) = true;
        if (on_tables && !fns[i].is_completely_specified()) ++isf_on_tables;
      }
      if (cut_tt && cut_bdd) ++mixed;
      if (!std::is_sorted(bound.begin(), bound.end())) ++unsorted;
    }
  }
  EXPECT_GT(mixed, 0) << "no candidate mixed truth-table and DAG outputs";
  EXPECT_GT(isf_on_tables, 0) << "no incompletely specified output scored on tables";
  EXPECT_GT(unsorted, 0);
  EXPECT_GT(outside, 0) << "no bound variable outside an output's support";
}

// Large ISF graphs: with six bound variables, sparse care sets and many
// distinct cofactors, the graph has more vertices than the exact coloring
// handles, and DSATUR's result can depend on the vertex numbering. The
// views and the reference agree only if both number the cofactors in the
// same first-seen bound-vertex order.
TEST(TruthTableScorer, MatchesBddScorerOnLargeIsfGraphs) {
  Rng rng(24);
  for (int trial = 0; trial < 1000; ++trial) {
    const int n = rng.range(7, 9);
    Manager m(n);
    m.set_order(random_permutation(rng, n));
    const std::vector<int> vars = random_vars(rng, n, n);
    const Bdd on = from_bits(m, random_bits(rng, n), vars);
    const Bdd care = from_bits(m, random_bits(rng, n, static_cast<std::uint32_t>(rng.range(1, 3))), vars);
    const std::vector<Isf> fns{Isf(on, care)};
    std::vector<OutputView> views = output_views(fns);
    const std::vector<int> bound = random_vars(rng, n, 6);
    const std::uint64_t seed = rng.below(4) + 1;
    const BoundSetChoice on_tt = evaluate_bound_set(views, bound, seed);
    const BoundSetChoice on_bdd = evaluate_bound_set(fns, bound, seed);
    ASSERT_EQ(on_tt.r_per_output, on_bdd.r_per_output) << "trial " << trial;
    ASSERT_EQ(on_tt.benefit, on_bdd.benefit) << "trial " << trial;
  }
}

}  // namespace
}  // namespace mfd
