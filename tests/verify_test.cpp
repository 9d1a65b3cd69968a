// Tests of the differential fuzz harness itself (src/verify): generator
// determinism and invariants, oracle checks (including that it *catches*
// planted bugs), shrinker minimality, and reproducer round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

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
      ASSERT_EQ(out.on.num_vars(), spec.num_inputs);
      ASSERT_EQ(out.care.num_vars(), spec.num_inputs);
      for (std::size_t m = 0; m < spec.table_size(); ++m)
        ASSERT_LE(out.on[m], out.care[m]) << "on set outside care set";
    }
  }
}

TEST(SpecGen, RejectsInvalidShapes) {
  EXPECT_THROW(generate_spec(1, {5, 2, 1, 4}), Error);    // empty input range
  EXPECT_THROW(generate_spec(1, {40, 40, 1, 4}), Error);  // past the table limit
  EXPECT_THROW(generate_spec(1, {1, tt::kMaxVars + 1, 1, 4}), Error);
  EXPECT_THROW(generate_spec(1, {-1, 3, 1, 4}), Error);
  EXPECT_THROW(generate_spec(1, {1, 7, 1, 0}), Error);    // no outputs
  EXPECT_THROW(generate_spec(1, {1, 7, 0, 4}), Error);
  EXPECT_THROW(generate_spec(1, {1, 7, 3, 2}), Error);    // empty output range
  EXPECT_EQ(generate_spec(1, {tt::kMaxVars, tt::kMaxVars, 1, 1}).num_inputs, tt::kMaxVars);
}

TEST(SpecGen, IsfConversionRoundTrips) {
  // The default shapes, then every width from 12 inputs to the kernel's
  // limit: tables of 64 to 1024 words.
  std::vector<SpecGenOptions> shapes = {SpecGenOptions{}};
  for (int n = 12; n <= tt::kMaxVars; ++n) shapes.push_back({n, n, 1, 3});
  for (const SpecGenOptions& shape : shapes) {
    const std::uint64_t seeds = shape.min_inputs == shape.max_inputs ? 3 : 30;
    for (std::uint64_t seed = 0; seed < seeds; ++seed) {
      const TableSpec spec = generate_spec(seed, shape);
      bdd::Manager m;
      const std::vector<Isf> fns = to_isfs(spec, m);
      ASSERT_EQ(fns.size(), spec.outputs.size());
      const TableSpec back = from_isfs(fns, spec.num_inputs);
      EXPECT_TRUE(spec == back) << spec.num_inputs << " inputs, seed " << seed;
    }
  }
}

TEST(SpecGen, IsfsAgreeWithTablesOnEveryMinterm) {
  // to_isfs and from_isfs share the kernel's variable numbering, so the
  // round trip alone cannot see a convention both get wrong: read the BDDs
  // one minterm at a time instead.
  for (const auto& [n, seed] : {std::pair{3, 4ull}, std::pair{7, 9ull},
                                std::pair{12, 1ull}, std::pair{16, 2ull}}) {
    const TableSpec spec = generate_spec(seed, {n, n, 2, 2});
    bdd::Manager m;
    const std::vector<Isf> fns = to_isfs(spec, m);
    std::vector<bool> assignment(static_cast<std::size_t>(m.num_vars()), false);
    for (std::uint64_t mt = 0; mt < spec.table_size(); ++mt) {
      for (int v = 0; v < n; ++v) assignment[static_cast<std::size_t>(v)] = ((mt >> v) & 1) != 0;
      for (std::size_t o = 0; o < fns.size(); ++o) {
        ASSERT_EQ(m.eval(fns[o].care().id(), assignment), spec.outputs[o].care[mt])
            << n << " inputs, output " << o << ", minterm " << mt;
        ASSERT_EQ(m.eval(fns[o].on().id(), assignment), spec.outputs[o].on[mt])
            << n << " inputs, output " << o << ", minterm " << mt;
      }
    }
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
  spec.outputs[0].care.set(0, true);
  spec.outputs[0].on.set(0, true);

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

TEST(Shrink, VariableDropsMatchPerMintermCofactors) {
  // Stage 2 offers the spec cofactored at each input = 0. Rejecting every
  // candidate keeps the spec whole, so the candidates with one input fewer
  // are exactly those drops; compare them with the cofactor read minterm by
  // minterm. Below six inputs a table is one word holding its function by
  // repetition, from seven on several words.
  for (int n = 1; n <= 9; ++n) {
    const TableSpec spec = generate_spec(100 + static_cast<std::uint64_t>(n), {n, n, 1, 3});
    std::vector<TableSpec> drops;
    shrink_spec(spec, [&](const TableSpec& candidate) {
      if (candidate.num_inputs == n - 1) drops.push_back(candidate);
      return false;
    });
    if (n == 1) {  // the shrinker keeps at least one input
      EXPECT_TRUE(drops.empty());
      continue;
    }
    ASSERT_EQ(drops.size(), static_cast<std::size_t>(n));
    for (int var = 0; var < n; ++var) {
      TableSpec reference;
      reference.num_inputs = n - 1;
      const std::uint64_t low = (std::uint64_t{1} << var) - 1;
      for (const TableSpec::Output& out : spec.outputs) {
        TableSpec::Output r{tt::TruthTable(n - 1), tt::TruthTable(n - 1)};
        for (std::uint64_t mt = 0; mt < reference.table_size(); ++mt) {
          const std::uint64_t full = (mt & low) | ((mt & ~low) << 1);
          r.on.set(mt, out.on[full]);
          r.care.set(mt, out.care[full]);
        }
        reference.outputs.push_back(std::move(r));
      }
      EXPECT_NE(std::find(drops.begin(), drops.end(), reference), drops.end())
          << n << " inputs, dropping input " << var;
    }
  }
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
  // A spec is two truth tables per output, of at most tt::kMaxVars inputs.
  EXPECT_THROW(parse_repro(".mfdrepro 1\n.seed 1\n.i 17\n.o 1\n.type fr\n.e\n"), Error);
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
