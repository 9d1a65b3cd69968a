// Benchmark generators: functional correctness of the exact generators and
// well-formedness of the synthetic ones.
#include <gtest/gtest.h>

#include "circuits/circuits.h"
#include "testlib.h"
#include "util/rng.h"

namespace mfd::circuits {
namespace {

using bdd::Bdd;
using bdd::Manager;

std::uint64_t eval_word(const Manager& m, const Word& w, std::uint64_t input_bits, int n_in) {
  std::vector<bool> a(static_cast<std::size_t>(m.num_vars()), false);
  for (int i = 0; i < n_in; ++i) a[static_cast<std::size_t>(i)] = (input_bits >> i) & 1;
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < w.size(); ++i)
    if (m.eval(w[i].id(), a)) out |= std::uint64_t{1} << i;
  return out;
}

TEST(WordOps, AddWords) {
  Manager m(8);
  const Word sum = add_words(input_word(m, 0, 4), input_word(m, 4, 4));
  for (std::uint64_t a = 0; a < 16; ++a)
    for (std::uint64_t b = 0; b < 16; ++b)
      EXPECT_EQ(eval_word(m, sum, a | (b << 4), 8), a + b);
}

TEST(WordOps, AddWordsWithCarryAndWidthMismatch) {
  Manager m(6);
  const Word sum = add_words(input_word(m, 0, 3), input_word(m, 3, 2), m.var(5));
  for (std::uint64_t v = 0; v < 64; ++v) {
    const std::uint64_t a = v & 7, b = (v >> 3) & 3, cin = (v >> 5) & 1;
    EXPECT_EQ(eval_word(m, sum, v, 6), a + b + cin);
  }
}

TEST(WordOps, CountOnes) {
  Manager m(6);
  std::vector<Bdd> bits;
  for (int i = 0; i < 6; ++i) bits.push_back(m.var(i));
  const Word count = count_ones(m, bits);
  for (std::uint64_t v = 0; v < 64; ++v)
    EXPECT_EQ(eval_word(m, count, v, 6), static_cast<std::uint64_t>(__builtin_popcountll(v)));
}

TEST(WordOps, MultiplyWords) {
  Manager m(6);
  const Word prod = multiply_words(input_word(m, 0, 3), input_word(m, 3, 3));
  for (std::uint64_t a = 0; a < 8; ++a)
    for (std::uint64_t b = 0; b < 8; ++b)
      EXPECT_EQ(eval_word(m, prod, a | (b << 3), 6), a * b);
}

TEST(Generators, AdderMatchesArithmetic) {
  Manager m;
  const Benchmark bench = adder(m, 4);
  EXPECT_EQ(bench.num_inputs, 8);
  ASSERT_EQ(bench.outputs.size(), 5u);
  for (std::uint64_t a = 0; a < 16; ++a)
    for (std::uint64_t b = 0; b < 16; ++b)
      EXPECT_EQ(eval_word(m, bench.outputs, a | (b << 4), 8), a + b);
}

TEST(Generators, PartialMultiplierSumsMatrix) {
  Manager m;
  const Benchmark bench = partial_multiplier(m, 3);
  EXPECT_EQ(bench.num_inputs, 9);
  ASSERT_EQ(bench.outputs.size(), 6u);
  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    const std::uint64_t v = rng.below(512);
    std::uint64_t expected = 0;
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 3; ++j)
        if ((v >> (i * 3 + j)) & 1) expected += std::uint64_t{1} << (i + j);
    EXPECT_EQ(eval_word(m, bench.outputs, v, 9), expected);
  }
}

TEST(Generators, PartialMultiplierOfOperandsEqualsMultiplier) {
  // Substituting p(i,j) = a_i & b_j into pm_n must give the n x n multiplier.
  Manager pm_m;
  const Benchmark pm = partial_multiplier(pm_m, 3);
  Manager mult_m;
  const Benchmark mult = multiplier(mult_m, 3);
  Rng rng(7);
  for (int trial = 0; trial < 64; ++trial) {
    const std::uint64_t a = rng.below(8), b = rng.below(8);
    std::uint64_t pp = 0;
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 3; ++j)
        if (((a >> i) & 1) && ((b >> j) & 1)) pp |= std::uint64_t{1} << (i * 3 + j);
    EXPECT_EQ(eval_word(pm_m, pm.outputs, pp, 9),
              eval_word(mult_m, mult.outputs, a | (b << 3), 6));
  }
}

TEST(Generators, Rd73CountsOnes) {
  Manager m;
  const Benchmark bench = build("rd73", m);
  EXPECT_EQ(bench.num_inputs, 7);
  EXPECT_EQ(bench.outputs.size(), 3u);
  for (std::uint64_t v = 0; v < 128; ++v)
    EXPECT_EQ(eval_word(m, bench.outputs, v, 7),
              static_cast<std::uint64_t>(__builtin_popcountll(v)));
}

TEST(Generators, NineSymIsSymmetricThreshold) {
  Manager m;
  const Benchmark bench = build("9sym", m);
  EXPECT_EQ(bench.num_inputs, 9);
  ASSERT_EQ(bench.outputs.size(), 1u);
  std::vector<bool> a(9);
  for (std::uint64_t v = 0; v < 512; ++v) {
    for (int i = 0; i < 9; ++i) a[static_cast<std::size_t>(i)] = (v >> i) & 1;
    const int ones = __builtin_popcountll(v);
    EXPECT_EQ(m.eval(bench.outputs[0].id(), a), ones >= 3 && ones <= 6);
  }
}

TEST(Generators, Z4mlAddsWithCarry) {
  Manager m;
  const Benchmark bench = build("z4ml", m);
  EXPECT_EQ(bench.num_inputs, 7);
  ASSERT_EQ(bench.outputs.size(), 4u);
  for (std::uint64_t v = 0; v < 128; ++v) {
    const std::uint64_t a = v & 7, b = (v >> 3) & 7, cin = (v >> 6) & 1;
    EXPECT_EQ(eval_word(m, bench.outputs, v, 7), a + b + cin);
  }
}

TEST(Generators, ClipSaturates) {
  Manager m;
  const Benchmark bench = build("clip", m);
  EXPECT_EQ(bench.num_inputs, 9);
  ASSERT_EQ(bench.outputs.size(), 5u);
  for (std::int64_t x = -256; x < 256; ++x) {
    const std::uint64_t bits = static_cast<std::uint64_t>(x) & 0x1FF;
    const std::int64_t clipped = x > 15 ? 15 : (x < -16 ? -16 : x);
    EXPECT_EQ(eval_word(m, bench.outputs, bits, 9),
              static_cast<std::uint64_t>(clipped) & 0x1F)
        << "x=" << x;
  }
}

TEST(Generators, CountIsASixteenBitAlu) {
  Manager m;
  const Benchmark bench = build("count", m);
  EXPECT_EQ(bench.num_inputs, 35);
  EXPECT_EQ(bench.outputs.size(), 16u);
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t a = rng.below(1 << 16), b = rng.below(1 << 16);
    const std::uint64_t mode = rng.below(4), cin = rng.below(2);
    const std::uint64_t v = a | (b << 16) | (mode << 32) | (cin << 34);
    std::uint64_t expect = 0;
    switch (mode) {
      case 0: expect = (a + b + cin) & 0xFFFF; break;
      case 1: expect = a & b; break;
      case 2: expect = a | b; break;
      case 3: expect = a ^ b; break;
    }
    EXPECT_EQ(eval_word(m, bench.outputs, v, 35), expect);
  }
}

TEST(Generators, E64IsPriorityOneHot) {
  Manager m;
  const Benchmark bench = build("e64", m);
  EXPECT_EQ(bench.num_inputs, 65);
  EXPECT_EQ(bench.outputs.size(), 65u);
  std::vector<bool> a(65, false);
  a[7] = true;
  a[20] = true;
  for (int o = 0; o < 65; ++o)
    EXPECT_EQ(m.eval(bench.outputs[static_cast<std::size_t>(o)].id(), a), o == 7);
}

TEST(Generators, RotRotates) {
  Manager m;
  const Benchmark bench = build("rot", m);
  EXPECT_EQ(bench.num_inputs, 20);
  EXPECT_EQ(bench.outputs.size(), 16u);
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const std::uint64_t data = rng.below(1 << 16);
    const std::uint64_t s = rng.below(16);
    const std::uint64_t v = data | (s << 16);
    const std::uint64_t rotated =
        ((data >> s) | (data << (16 - s))) & 0xFFFF;  // out_i = in_(i+s mod 16)
    EXPECT_EQ(eval_word(m, bench.outputs, v, 20), s == 0 ? data : rotated);
  }
}

TEST(Generators, C499CorrectsSingleBitErrors) {
  Manager m;
  const Benchmark bench = build("C499", m);
  EXPECT_EQ(bench.num_inputs, 22);
  EXPECT_EQ(bench.outputs.size(), 16u);
  // With enable = 1, consistent check bits, and a single flipped data bit,
  // the output must equal the original data word.
  auto pat = [](int i) {
    int v = 2;
    for (int remaining = i + 1; remaining > 0;) {
      ++v;
      if ((v & (v - 1)) != 0) --remaining;
    }
    return v;
  };
  Rng rng(19);
  for (int trial = 0; trial < 30; ++trial) {
    const std::uint64_t data = rng.below(1 << 16);
    std::uint64_t checks = 0;
    for (int j = 0; j < 5; ++j) {
      int parity = 0;
      for (int i = 0; i < 16; ++i)
        if (((pat(i) >> j) & 1) && ((data >> i) & 1)) parity ^= 1;
      if (parity) checks |= std::uint64_t{1} << j;
    }
    const int flip = rng.range(0, 15);
    const std::uint64_t corrupted = data ^ (std::uint64_t{1} << flip);
    const std::uint64_t v = corrupted | (checks << 16) | (std::uint64_t{1} << 21);
    EXPECT_EQ(eval_word(m, bench.outputs, v, 22), data) << "flip=" << flip;
  }
}

TEST(Generators, SyntheticRowsAreDeterministicAndNontrivial) {
  for (const char* name : {"misex1", "misex2", "sao2", "vg2", "duke2", "apex7", "b9"}) {
    Manager m;
    const Benchmark a = build(name, m);
    const Benchmark b = build(name, m);
    ASSERT_EQ(a.outputs.size(), b.outputs.size()) << name;
    int nontrivial = 0;
    for (std::size_t o = 0; o < a.outputs.size(); ++o) {
      // Determinism: a second build is the same function, so by canonicity
      // the same edge.
      EXPECT_EQ(a.outputs[o].id(), b.outputs[o].id()) << name;
      if (!a.outputs[o].is_constant()) ++nontrivial;
    }
    EXPECT_GT(nontrivial, static_cast<int>(a.outputs.size()) / 2) << name;
  }
}

TEST(Generators, Alu4IsASixBitAlu) {
  Manager m;
  const Benchmark bench = build("alu4", m);
  EXPECT_EQ(bench.num_inputs, 14);
  EXPECT_EQ(bench.outputs.size(), 8u);
  Rng rng(29);
  for (int trial = 0; trial < 60; ++trial) {
    const std::uint64_t a = rng.below(64), b = rng.below(64);
    const std::uint64_t sel = rng.below(4);
    const std::uint64_t v = a | (b << 6) | (sel << 12);
    std::uint64_t expect = 0;
    switch (sel) {
      case 0: expect = (a + b) & 63; break;
      case 1: expect = (a - b) & 63; break;
      case 2: expect = a & b; break;
      case 3: expect = a ^ b; break;
    }
    std::uint64_t got = 0;
    std::vector<bool> assignment(static_cast<std::size_t>(m.num_vars()), false);
    for (int i = 0; i < 14; ++i) assignment[static_cast<std::size_t>(i)] = (v >> i) & 1;
    for (int i = 0; i < 6; ++i)
      if (m.eval(bench.outputs[static_cast<std::size_t>(i)].id(), assignment))
        got |= std::uint64_t{1} << i;
    EXPECT_EQ(got, expect) << "sel=" << sel;
    // Zero flag.
    EXPECT_EQ(m.eval(bench.outputs[7].id(), assignment), expect == 0);
  }
}

TEST(Generators, ConvenienceRowsBuild) {
  for (const char* name : {"add4", "add8", "mult4", "pm3", "pm4", "alu4", "rd53"}) {
    Manager m;
    const Benchmark bench = build(name, m);
    EXPECT_FALSE(bench.outputs.empty()) << name;
  }
}

TEST(Generators, ComparatorOrdersCorrectly) {
  Manager m;
  const Benchmark bench = build("cmp8", m);
  EXPECT_EQ(bench.num_inputs, 16);
  ASSERT_EQ(bench.outputs.size(), 3u);
  Rng rng(37);
  std::vector<bool> assignment(static_cast<std::size_t>(m.num_vars()), false);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t a = rng.below(256), b = rng.below(256);
    for (int i = 0; i < 8; ++i) {
      assignment[static_cast<std::size_t>(i)] = (a >> i) & 1;
      assignment[static_cast<std::size_t>(8 + i)] = (b >> i) & 1;
    }
    EXPECT_EQ(m.eval(bench.outputs[0].id(), assignment), a < b);
    EXPECT_EQ(m.eval(bench.outputs[1].id(), assignment), a == b);
    EXPECT_EQ(m.eval(bench.outputs[2].id(), assignment), a > b);
  }
}

TEST(Generators, GrayOfIncrement) {
  Manager m;
  const Benchmark bench = build("gray8", m);
  EXPECT_EQ(bench.num_inputs, 8);
  ASSERT_EQ(bench.outputs.size(), 8u);
  for (std::uint64_t x = 0; x < 256; ++x) {
    const std::uint64_t inc = (x + 1) & 0xFF;
    const std::uint64_t gray = inc ^ (inc >> 1);
    EXPECT_EQ(eval_word(m, bench.outputs, x, 8), gray) << x;
  }
}

TEST(Generators, MajorityThreshold) {
  Manager m;
  const Benchmark bench = build("maj11", m);
  EXPECT_EQ(bench.num_inputs, 11);
  std::vector<bool> assignment(11);
  Rng rng(41);
  for (int trial = 0; trial < 300; ++trial) {
    int ones = 0;
    for (int i = 0; i < 11; ++i) {
      assignment[static_cast<std::size_t>(i)] = rng.flip();
      ones += assignment[static_cast<std::size_t>(i)];
    }
    EXPECT_EQ(m.eval(bench.outputs[0].id(), assignment), ones >= 6);
  }
}

TEST(Generators, TableRowsAllBuild) {
  for (const std::string& name : table_rows()) {
    Manager m;
    const Benchmark bench = build(name, m);
    EXPECT_EQ(bench.name, name);
    EXPECT_GT(bench.num_inputs, 0);
    EXPECT_FALSE(bench.outputs.empty());
    EXPECT_LE(m.num_vars(), bench.num_inputs);
  }
}

}  // namespace
}  // namespace mfd::circuits
