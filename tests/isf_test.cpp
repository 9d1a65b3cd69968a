#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "isf/isf.h"
#include "testlib.h"
#include "util/rng.h"

namespace mfd {
namespace {

using bdd::Bdd;
using bdd::Manager;

TEST(Isf, CompletelySpecifiedBasics) {
  Manager m(3);
  const Bdd f = m.var(0) & m.var(1);
  const Isf isf = Isf::completely_specified(f);
  EXPECT_TRUE(isf.is_completely_specified());
  EXPECT_EQ(isf.on(), f);
  EXPECT_EQ(isf.off(), !f);
  EXPECT_TRUE(isf.dc().is_false());
  EXPECT_TRUE(isf.admits(f));
  EXPECT_FALSE(isf.admits(m.var(0)));
}

TEST(Isf, OnClippedToCare) {
  Manager m(2);
  // on-set reaches outside the care set; the constructor must clip it.
  const Isf isf(m.var(0), m.var(1));
  EXPECT_EQ(isf.on(), m.var(0) & m.var(1));
  EXPECT_EQ(isf.care(), m.var(1));
}

TEST(Isf, FromOnDc) {
  // An on-set and a don't-care set make the ISF (on, !dc).
  Manager m(2);
  const Isf isf(m.var(0), !m.var(1));
  EXPECT_EQ(isf.dc(), m.var(1));
  EXPECT_EQ(isf.on(), m.var(0) & !m.var(1));
}

TEST(Isf, AdmitsExactlyTheInterval) {
  Manager m(2);
  // care = x0 (two care points), on = x0 & x1.
  const Isf isf(m.var(0) & m.var(1), m.var(0));
  // Any extension must be 1 on (1,1), 0 on (1,0); free elsewhere.
  EXPECT_TRUE(isf.admits(m.var(0) & m.var(1)));
  EXPECT_TRUE(isf.admits(m.var(1)));
  EXPECT_TRUE(isf.admits(isf.extension_zero()));
  EXPECT_TRUE(isf.admits(isf.on() | isf.dc()));  // every don't care set to 1
  EXPECT_FALSE(isf.admits(m.var(0)));         // 1 on (1,0): conflict
  EXPECT_FALSE(isf.admits(m.bdd_false()));    // 0 on (1,1): conflict
}

TEST(Isf, VacuousAdmitsEverything) {
  Manager m(2);
  const Isf isf(m.bdd_false(), m.bdd_false());
  EXPECT_TRUE(isf.care().is_false());
  EXPECT_TRUE(isf.admits(m.bdd_true()));
  EXPECT_TRUE(isf.admits(m.var(0) ^ m.var(1)));
}

TEST(Isf, CofactorCommutesWithExtension) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 5;
    Manager m(n);
    const Bdd on = test::bdd_from_table(m, test::random_table(rng, n), n);
    const Bdd care = test::bdd_from_table(m, test::random_table(rng, n), n);
    const Isf isf(on & care, care);
    const int v = rng.range(0, n - 1);
    const bool val = rng.flip();
    const Isf cof = isf.cofactor(v, val);
    EXPECT_EQ(cof.on(), isf.on().cofactor(v, val));
    EXPECT_EQ(cof.care(), isf.care().cofactor(v, val));
  }
}

TEST(Isf, CompatibilityIsCareConflictFreedom) {
  Manager m(2);
  const Bdd x0 = m.var(0);
  // a: on = x0, care = all. b: on = !x0 on care x0 only -> conflict at x0=1.
  const Isf a = Isf::completely_specified(x0);
  const Isf b(!x0, m.bdd_true());
  EXPECT_FALSE(a.compatible_with(b));
  // c cares only where x0=0 and is off there: compatible with a.
  const Isf c(m.bdd_false(), !x0);
  EXPECT_TRUE(a.compatible_with(c));
  EXPECT_TRUE(c.compatible_with(a));
  // Every ISF is compatible with itself and with the vacuous ISF.
  EXPECT_TRUE(a.compatible_with(a));
  const Isf vac(m.bdd_false(), m.bdd_false());
  EXPECT_TRUE(a.compatible_with(vac));
}

TEST(Isf, MergeUnionsInformation) {
  Manager m(2);
  const Bdd x0 = m.var(0), x1 = m.var(1);
  const Isf a(x0 & x1, x0);        // cares on x0: on iff x1
  const Isf b(m.bdd_false(), !x0); // cares on !x0: off
  ASSERT_TRUE(a.compatible_with(b));
  const Isf merged = a.merge(b);
  EXPECT_TRUE(merged.is_completely_specified());
  EXPECT_EQ(merged.on(), x0 & x1);
}

TEST(Isf, MergedExtensionAdmittedByBothParts) {
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 4;
    Manager m(n);
    const Bdd on = test::bdd_from_table(m, test::random_table(rng, n), n);
    const Bdd care_a = test::bdd_from_table(m, test::random_table(rng, n), n);
    const Bdd care_b = test::bdd_from_table(m, test::random_table(rng, n), n);
    // Both ISFs restrict the same underlying function: always compatible.
    const Isf a(on & care_a, care_a);
    const Isf b(on & care_b, care_b);
    ASSERT_TRUE(a.compatible_with(b));
    const Isf merged = a.merge(b);
    EXPECT_TRUE(a.admits(merged.extension_zero()));
    EXPECT_TRUE(b.admits(merged.extension_zero()));
    EXPECT_EQ(merged.care(), care_a | care_b);
  }
}

TEST(Isf, SupportUnionsOnAndCare) {
  Manager m(4);
  const Isf isf(m.var(0) & m.var(1), m.var(1) | m.var(3));
  EXPECT_EQ(isf.support(), (std::vector<int>{0, 1, 3}));
}

TEST(Isf, ExtensionSmallIsAdmissible) {
  Rng rng(83);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = rng.range(2, 7);
    Manager m(n);
    const Bdd on = test::bdd_from_table(m, test::random_table(rng, n), n);
    const Bdd care = test::bdd_from_table(m, test::random_table(rng, n), n);
    const Isf f(on & care, care);
    EXPECT_TRUE(f.admits(f.extension_small()));
    EXPECT_TRUE(f.admits(f.extension_zero()));
    EXPECT_TRUE(f.admits(f.on() | f.dc()));
    // Restrict never enlarges the support, which extension_small relies on.
    if (care.is_false()) continue;
    const std::vector<int> supp_on = m.support(f.on().id());
    const Bdd restricted = m.wrap(m.restrict_to(f.on().id(), care.id()));
    const std::vector<int> supp_r = m.support(restricted.id());
    EXPECT_TRUE(std::includes(supp_on.begin(), supp_on.end(), supp_r.begin(), supp_r.end()))
        << "trial " << trial;
  }
}

TEST(Isf, ExtensionSmallCanDropSupport) {
  Manager m(3);
  // Cares only where x0 = 1; there the function equals x1. Extension zero
  // keeps x0 in the support, the restrict-based extension does not.
  const Isf f(m.var(0) & m.var(1), m.var(0));
  EXPECT_EQ(f.extension_small(), m.var(1));
  EXPECT_EQ(m.support(f.extension_zero().id()).size(), 2u);
}

TEST(Isf, EqualityIsSpecificationEquality) {
  Manager m(2);
  const Isf a(m.var(0), m.var(1));
  const Isf b(m.var(0), m.var(1));
  const Isf c(m.var(0), m.bdd_true());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace mfd
