// Tests of the differential fuzz harness itself (src/verify): generator
// determinism and invariants, oracle checks (including that it *catches*
// planted bugs), shrinker minimality, and reproducer round-trips.
#include <gtest/gtest.h>

#include "core/errors.h"
#include "net/simulate.h"
#include "verify/oracle.h"
#include "verify/repro.h"
#include "verify/shrink.h"
#include "verify/specgen.h"

namespace mfd::verify {
namespace {

TEST(SpecGen, DeterministicAcrossCalls) {
  for (std::uint64_t seed : {1ull, 7ull, 1234567ull}) {
    const TableSpec a = generate_spec(seed);
    const TableSpec b = generate_spec(seed);
    EXPECT_TRUE(a == b) << "seed " << seed;
  }
  EXPECT_FALSE(generate_spec(1) == generate_spec(2));
}

TEST(SpecGen, RespectsBoundsAndInvariant) {
  SpecGenOptions opts;
  opts.min_inputs = 2;
  opts.max_inputs = 5;
  opts.max_outputs = 3;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const TableSpec spec = generate_spec(seed, opts);
    ASSERT_GE(spec.num_inputs, 2);
    ASSERT_LE(spec.num_inputs, 5);
    ASSERT_GE(spec.outputs.size(), 1u);
    ASSERT_LE(spec.outputs.size(), 3u);
    for (const TableSpec::Output& out : spec.outputs) {
      ASSERT_EQ(out.on.size(), spec.table_size());
      ASSERT_EQ(out.care.size(), spec.table_size());
      for (std::size_t m = 0; m < spec.table_size(); ++m)
        ASSERT_LE(out.on[m], out.care[m]) << "on set outside care set";
    }
  }
}

TEST(SpecGen, IsfConversionRoundTrips) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const TableSpec spec = generate_spec(seed);
    bdd::Manager m;
    const std::vector<Isf> fns = to_isfs(spec, m);
    ASSERT_EQ(fns.size(), spec.outputs.size());
    const TableSpec back = from_isfs(fns, spec.num_inputs);
    EXPECT_TRUE(spec == back) << "seed " << seed;
  }
}

TEST(SpecGen, CoversDegenerateShapes) {
  // The generator must actually emit the shapes the harness exists to test:
  // all-DC outputs, complete outputs, and (at >=2 outputs) duplicates.
  bool saw_all_dc = false, saw_complete = false, saw_dup = false;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const TableSpec spec = generate_spec(seed);
    for (std::size_t o = 0; o < spec.outputs.size(); ++o) {
      const TableSpec::Output& out = spec.outputs[o];
      bool any_care = false, all_care = true;
      for (std::size_t m = 0; m < spec.table_size(); ++m) {
        any_care |= out.care[m] != 0;
        all_care &= out.care[m] != 0;
      }
      saw_all_dc |= !any_care;
      saw_complete |= all_care;
      for (std::size_t p = 0; p < o; ++p)
        saw_dup |= spec.outputs[p].on == out.on && spec.outputs[p].care == out.care;
    }
  }
  EXPECT_TRUE(saw_all_dc);
  EXPECT_TRUE(saw_complete);
  EXPECT_TRUE(saw_dup);
}

TEST(Oracle, PassesOnHealthyFlow) {
  const TableSpec spec = generate_spec(11);
  const OracleResult r = run_oracle(spec, 11);
  EXPECT_TRUE(r.ok) << r.failing_point << ": " << r.failure;
  EXPECT_GT(r.points_run, 0);
  EXPECT_GT(r.checks_run, r.points_run);
}

TEST(Oracle, OptionPointsAreDeterministic) {
  const auto a = derive_option_points(99);
  const auto b = derive_option_points(99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].group, b[i].group);
    EXPECT_EQ(a[i].cache_on, b[i].cache_on);
  }
  // The determinism cross-check needs at least two points in one group.
  int base_group = 0;
  for (const OptionPoint& p : a) base_group += p.group == "base" ? 1 : 0;
  EXPECT_GE(base_group, 2);
}

TEST(Oracle, CatchesCareSetViolation) {
  // Plant a bug downstream of the flow: claim the synthesized network of a
  // *different* spec satisfies this one. The oracle must refuse.
  const TableSpec spec = generate_spec(5);
  bdd::Manager m;
  const std::vector<Isf> fns = to_isfs(spec, m);
  std::vector<int> pi_vars(static_cast<std::size_t>(spec.num_inputs));
  for (int v = 0; v < spec.num_inputs; ++v) pi_vars[static_cast<std::size_t>(v)] = v;

  // A network computing constant 0 for every output. Unless every output's
  // on-set is empty, check_exact must flag it.
  net::LutNetwork zero(spec.num_inputs);
  for (std::size_t o = 0; o < fns.size(); ++o) zero.add_output(net::kConst0);
  bool any_on = false;
  for (const TableSpec::Output& out : spec.outputs)
    for (std::size_t mt = 0; mt < spec.table_size(); ++mt) any_on |= out.on[mt] != 0;
  ASSERT_TRUE(any_on) << "seed 5 should have a nonempty on-set";
  std::string error;
  EXPECT_FALSE(net::check_exact(zero, fns, pi_vars, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Shrink, MinimizesToPlantedCore) {
  // Failure predicate: "output 0 still cares about minterm 0 and maps it to
  // 1". The shrinker should strip everything else: one output, one variable
  // (or zero DCs), tiny tables.
  SpecGenOptions opts;
  opts.min_inputs = 4;
  opts.max_inputs = 4;
  opts.min_outputs = 3;
  opts.max_outputs = 3;
  TableSpec spec = generate_spec(17, opts);
  spec.outputs[0].care[0] = 1;
  spec.outputs[0].on[0] = 1;

  const auto still_fails = [](const TableSpec& s) {
    return !s.outputs.empty() && s.outputs[0].care[0] != 0 && s.outputs[0].on[0] != 0;
  };
  const ShrinkResult r = shrink_spec(spec, still_fails);
  EXPECT_TRUE(still_fails(r.spec));
  EXPECT_EQ(r.spec.outputs.size(), 1u);
  EXPECT_EQ(r.spec.num_inputs, 1);
  // Stage 3 must have eliminated every don't-care cell.
  for (std::size_t m = 0; m < r.spec.table_size(); ++m)
    EXPECT_TRUE(r.spec.outputs[0].care[m]) << "DC cell survived shrinking";
  EXPECT_GT(r.checks_run, 0);
  EXPECT_LE(r.checks_run, ShrinkOptions{}.max_checks);
}

TEST(Shrink, RespectsCheckBudget) {
  SpecGenOptions opts;
  opts.min_inputs = 6;
  opts.max_inputs = 6;
  TableSpec spec = generate_spec(23, opts);
  ShrinkOptions sh;
  sh.max_checks = 10;
  int calls = 0;
  const ShrinkResult r = shrink_spec(spec, [&](const TableSpec&) {
    ++calls;
    return true;  // everything "fails": worst case for the budget
  }, sh);
  EXPECT_LE(calls, 10);
  EXPECT_EQ(r.checks_run, calls);
}

TEST(Repro, WriteParseRoundTrip) {
  for (std::uint64_t seed : {3ull, 14ull, 77ull}) {
    const TableSpec spec = generate_spec(seed);
    Repro repro;
    repro.spec = spec;
    repro.oracle_seed = seed * 1000 + 1;
    repro.note = "round-trip test";
    const std::string text = write_repro(repro);
    const Repro back = parse_repro(text);
    EXPECT_EQ(back.oracle_seed, repro.oracle_seed);
    EXPECT_EQ(back.note, repro.note);
    EXPECT_TRUE(back.spec == spec) << "seed " << seed;
  }
}

TEST(Repro, RejectsMalformedInput) {
  EXPECT_THROW(parse_repro(".seed 1\n.i 1\n.o 1\n.e\n"), ParseError);  // no version
  EXPECT_THROW(parse_repro(".mfdrepro 1\n.i 1\n.o 1\n.e\n"), ParseError);  // no seed
  EXPECT_THROW(parse_repro(".mfdrepro 99\n.seed 1\n.i 1\n.o 1\n.e\n"), ParseError);
  EXPECT_THROW(replay_repro_file("/nonexistent/path.repro"), Error);
}

TEST(Repro, ReplayRunsOracle) {
  Repro repro;
  repro.spec = generate_spec(31);
  repro.oracle_seed = 31;
  const OracleResult r = replay_repro(repro);
  EXPECT_TRUE(r.ok) << r.failing_point << ": " << r.failure;
}

}  // namespace
}  // namespace mfd::verify
