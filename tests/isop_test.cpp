// Minato-Morreale ISOP: interval containment, irredundancy, exactness for
// completely specified functions, and the PLA export built on it.
#include <gtest/gtest.h>

#include "bdd/isop.h"
#include "io/pla.h"
#include "testlib.h"
#include "util/rng.h"

namespace mfd {
namespace {

using bdd::Bdd;
using bdd::Cube;
using bdd::Manager;

/// The function of a cover: the OR of its cubes, each the AND of its
/// literals.
Bdd cover_function(Manager& m, const std::vector<Cube>& cover) {
  Bdd f = m.bdd_false();
  for (const Cube& cube : cover) {
    Bdd term = m.bdd_true();
    for (const auto& [var, phase] : cube.literals) term &= m.literal(var, phase);
    f |= term;
  }
  return f;
}

TEST(Isop, Constants) {
  Manager m(3);
  EXPECT_TRUE(bdd::isop(m, bdd::kFalse, bdd::kFalse).empty());
  const auto taut = bdd::isop(m, bdd::kTrue, bdd::kTrue);
  ASSERT_EQ(taut.size(), 1u);
  EXPECT_TRUE(taut[0].literals.empty());
}

TEST(Isop, SingleCubeFunctions) {
  Manager m(4);
  const Bdd f = m.var(0) & !m.var(2) & m.var(3);
  const auto cover = bdd::isop(m, f.id(), f.id());
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].literals.size(), 3u);
  EXPECT_EQ(cover_function(m, cover), f);
}

TEST(Isop, XorNeedsTwoCubes) {
  Manager m(2);
  const Bdd f = m.var(0) ^ m.var(1);
  const auto cover = bdd::isop(m, f.id(), f.id());
  EXPECT_EQ(cover.size(), 2u);
  EXPECT_EQ(cover_function(m, cover), f);
}

TEST(Isop, ExactForCompletelySpecified) {
  Rng rng(91);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = rng.range(1, 8);
    Manager m(n);
    const Bdd f = test::bdd_from_table(m, test::random_table(rng, n), n);
    const auto cover = bdd::isop(m, f.id(), f.id());
    EXPECT_EQ(cover_function(m, cover), f) << "n=" << n;
  }
}

TEST(Isop, StaysInsideTheInterval) {
  Rng rng(93);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = rng.range(2, 7);
    Manager m(n);
    const Bdd on = test::bdd_from_table(m, test::random_table(rng, n), n);
    const Bdd dc = test::bdd_from_table(m, test::random_table(rng, n), n);
    const Bdd lower = on & !dc;
    const Bdd upper = on | dc;
    const auto cover = bdd::isop(m, lower.id(), upper.id());
    const Bdd g = cover_function(m, cover);
    EXPECT_TRUE((lower & !g).is_false());
    EXPECT_TRUE((g & !upper).is_false());
  }
}

TEST(Isop, DontCaresShrinkCovers) {
  // Parity is the worst case for SOP (2^(n-1) cubes); a generous don't-care
  // set must reduce the cover dramatically.
  Manager m(6);
  Bdd parity = m.bdd_false();
  for (int i = 0; i < 6; ++i) parity ^= m.var(i);
  const auto exact = bdd::isop(m, parity.id(), parity.id());
  EXPECT_EQ(exact.size(), 32u);  // 2^5 minterm-ish cubes
  // Care only about inputs where x0 = 1.
  const Bdd lower = parity & m.var(0);
  const Bdd upper = parity | !m.var(0);
  const auto relaxed = bdd::isop(m, lower.id(), upper.id());
  EXPECT_LT(relaxed.size(), exact.size());
}

TEST(Isop, IrredundantCover) {
  Rng rng(97);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = rng.range(2, 6);
    Manager m(n);
    const Bdd f = test::bdd_from_table(m, test::random_table(rng, n), n);
    const auto cover = bdd::isop(m, f.id(), f.id());
    // Dropping any single cube must lose some minterm of f.
    for (std::size_t skip = 0; skip < cover.size(); ++skip) {
      std::vector<Cube> reduced;
      for (std::size_t i = 0; i < cover.size(); ++i)
        if (i != skip) reduced.push_back(cover[i]);
      EXPECT_NE(cover_function(m, reduced), f) << "cube " << skip << " redundant";
    }
  }
}

// ---------------------------------------------------------------------------
// PLA export via ISOP
// ---------------------------------------------------------------------------

TEST(PlaExport, RoundTripCompletelySpecified) {
  Rng rng(101);
  Manager m(5);
  std::vector<Isf> fns;
  for (int o = 0; o < 3; ++o)
    fns.push_back(Isf::completely_specified(
        test::bdd_from_table(m, test::random_table(rng, 5), 5)));
  const io::PlaFile pla = io::pla_from_isfs(fns, 5, {}, {"a", "b", "c"});
  EXPECT_EQ(pla.num_inputs, 5);
  EXPECT_EQ(pla.num_outputs, 3);

  const std::vector<Isf> back = io::pla_to_isfs(io::parse_pla(io::write_pla(pla)), m);
  ASSERT_EQ(back.size(), 3u);
  for (int o = 0; o < 3; ++o) {
    EXPECT_TRUE(back[static_cast<std::size_t>(o)].is_completely_specified());
    EXPECT_EQ(back[static_cast<std::size_t>(o)].on(), fns[static_cast<std::size_t>(o)].on()) << o;
  }
}

TEST(PlaExport, DontCaresAreSpentNotPreserved) {
  Manager m(3);
  // care = x0; on = x0 & x1. The exported cover picks *an* extension.
  const Isf f(m.var(0) & m.var(1), m.var(0));
  const io::PlaFile pla = io::pla_from_isfs({f});
  const std::vector<Isf> back = io::pla_to_isfs(io::parse_pla(io::write_pla(pla)), m);
  EXPECT_TRUE(f.admits(back[0].on()));
}

TEST(PlaExport, RejectsOutOfRangeSupport) {
  Manager m(4);
  const Isf f = Isf::completely_specified(m.var(3));
  EXPECT_THROW(io::pla_from_isfs({f}, 2), std::runtime_error);
}

}  // namespace
}  // namespace mfd
