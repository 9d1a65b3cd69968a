// Named benchmark registry for the paper's Table 1 / Table 2 rows.
//
// Rows with a public functional definition are generated exactly; PLA-born
// rows are deterministic synthetic stand-ins with matching I/O counts (see
// circuits.h and DESIGN.md). Three rows are *reduced-size* structural
// stand-ins, marked below, to keep the full table run laptop-scale:
// C499 (single-error-correcting core), C880 (datapath/ALU mix), rot
// (barrel rotator).
#include <functional>
#include <map>
#include <string>

#include "circuits/circuits.h"
#include "core/errors.h"
#include "util/rng.h"

namespace mfd::circuits {
namespace {

using bdd::Bdd;
using bdd::Manager;

// ---- exact generators -------------------------------------------------

Benchmark make_rd(Manager& m, int n, int out_bits) {
  ensure_vars(m, n);
  Benchmark b;
  b.name = "rd" + std::to_string(n) + std::to_string(out_bits);
  b.num_inputs = n;
  std::vector<Bdd> bits;
  for (int i = 0; i < n; ++i) bits.push_back(m.var(i));
  Word count = count_ones(m, bits);
  count.resize(static_cast<std::size_t>(out_bits), m.bdd_false());
  b.outputs = std::move(count);
  return b;
}

Benchmark make_9sym(Manager& m) {
  ensure_vars(m, 9);
  Benchmark b;
  b.name = "9sym";
  b.num_inputs = 9;
  std::vector<Bdd> bits;
  for (int i = 0; i < 9; ++i) bits.push_back(m.var(i));
  const Word count = count_ones(m, bits);
  Bdd in_range = m.bdd_false();
  for (std::uint64_t v = 3; v <= 6; ++v) in_range |= word_equals(count, v);
  b.outputs = {in_range};
  return b;
}

Benchmark make_z4ml(Manager& m) {
  // Two 3-bit operands plus carry-in: 7 inputs, 4 sum bits.
  ensure_vars(m, 7);
  Benchmark b;
  b.name = "z4ml";
  b.num_inputs = 7;
  b.outputs = add_words(input_word(m, 0, 3), input_word(m, 3, 3), m.var(6));
  return b;
}

Benchmark make_clip(Manager& m) {
  // 9-bit two's-complement input saturated into 5 bits.
  ensure_vars(m, 9);
  Benchmark b;
  b.name = "clip";
  b.num_inputs = 9;
  const Word x = input_word(m, 0, 9);
  const Bdd sign = x[8];
  // Representable in 5 bits iff bits 4..8 are all equal (sign extension).
  Bdd in_range = m.bdd_true();
  for (int i = 4; i < 8; ++i) in_range &= !(x[static_cast<std::size_t>(i)] ^ sign);
  for (int i = 0; i < 4; ++i) {
    // Saturation values: +15 = 01111, -16 = 10000.
    const Bdd sat = !sign;  // low bits of +15 are 1, of -16 are 0
    b.outputs.push_back((in_range & x[static_cast<std::size_t>(i)]) | ((!in_range) & sat));
  }
  b.outputs.push_back((in_range & x[4]) | ((!in_range) & sign));
  return b;
}

Benchmark make_5xp1(Manager& m) {
  // Synthetic stand-in with matching I/O: Y = 5*X + 1 over a 7-bit X
  // (10 output bits), an arithmetic profile comparable to the original.
  ensure_vars(m, 7);
  Benchmark b;
  b.name = "5xp1";
  b.num_inputs = 7;
  const Word x = input_word(m, 0, 7);
  Word x4 = x;  // X << 2
  x4.insert(x4.begin(), 2, m.bdd_false());
  Word y = add_words(x4, x);           // 5*X
  Word one{m.bdd_true()};
  y = add_words(y, one);               // +1
  y.resize(10, m.bdd_false());
  b.outputs = std::move(y);
  return b;
}

Benchmark make_f51m(Manager& m) {
  // Stand-in: 4x4 multiplier (8 inputs, 8 outputs).
  Benchmark b = multiplier(m, 4);
  b.name = "f51m";
  return b;
}

Benchmark make_alu(Manager& m, const std::string& name, int w, int first_sel) {
  // Operands a, b of width w; 2 select bits; ops add, sub, and, xor.
  // Outputs: w result bits, carry/borrow, zero flag.
  ensure_vars(m, first_sel + 2);
  {
    std::vector<int> a_ops, b_ops;
    for (int i = 0; i < w; ++i) a_ops.push_back(i), b_ops.push_back(w + i);
    interleave_order(m, {{first_sel, first_sel + 1}, a_ops, b_ops});
  }
  Benchmark b;
  b.name = name;
  b.num_inputs = first_sel + 2;
  const Word a = input_word(m, 0, w);
  const Word bw = input_word(m, w, w);
  const Bdd s0 = m.var(first_sel), s1 = m.var(first_sel + 1);

  Word nb;
  for (const Bdd& bit : bw) nb.push_back(!bit);
  const Word sum = add_words(a, bw);
  const Word dif = add_words(a, nb, m.bdd_true());  // a - b

  Word res;
  Bdd carry = m.bdd_false();
  for (int i = 0; i < w; ++i) {
    const Bdd andb = a[static_cast<std::size_t>(i)] & bw[static_cast<std::size_t>(i)];
    const Bdd xorb = a[static_cast<std::size_t>(i)] ^ bw[static_cast<std::size_t>(i)];
    // 00: add, 01: sub, 10: and, 11: xor
    const Bdd arith = ((!s0) & sum[static_cast<std::size_t>(i)]) | (s0 & dif[static_cast<std::size_t>(i)]);
    const Bdd logic = ((!s0) & andb) | (s0 & xorb);
    res.push_back(((!s1) & arith) | (s1 & logic));
  }
  carry = ((!s1) & (((!s0) & sum[static_cast<std::size_t>(w)]) |
                    (s0 & dif[static_cast<std::size_t>(w)])));
  Bdd zero = m.bdd_true();
  for (const Bdd& bit : res) zero &= !bit;

  b.outputs = std::move(res);
  b.outputs.push_back(carry);
  b.outputs.push_back(zero);
  return b;
}

Benchmark make_count(Manager& m) {
  // 16-bit two-operand unit: a(16), b(16), 2 mode bits, carry-in = 35 inputs;
  // 16 outputs. Modes: 00 add, 01 and, 10 or, 11 xor.
  ensure_vars(m, 35);
  {
    std::vector<int> a16, b16;
    for (int i = 0; i < 16; ++i) a16.push_back(i), b16.push_back(16 + i);
    interleave_order(m, {{32, 33, 34}, a16, b16});
  }
  Benchmark b;
  b.name = "count";
  b.num_inputs = 35;
  const Word a = input_word(m, 0, 16);
  const Word bw = input_word(m, 16, 16);
  const Bdd c0 = m.var(32), c1 = m.var(33), cin = m.var(34);
  const Word sum = add_words(a, bw, cin);
  for (int i = 0; i < 16; ++i) {
    const Bdd ai = a[static_cast<std::size_t>(i)], bi = bw[static_cast<std::size_t>(i)];
    // 00: add, 01: and, 10: or, 11: xor.
    const Bdd pick = ((!c1) & (((!c0) & sum[static_cast<std::size_t>(i)]) | (c0 & (ai & bi)))) |
                     (c1 & (((!c0) & (ai | bi)) | (c0 & (ai ^ bi))));
    b.outputs.push_back(pick);
  }
  return b;
}

Benchmark make_e64(Manager& m) {
  // Priority one-hot chain: out_i = !x_0 & ... & !x_(i-1) & x_i.
  constexpr int kN = 65;
  ensure_vars(m, kN);
  Benchmark b;
  b.name = "e64";
  b.num_inputs = kN;
  Bdd none_before = m.bdd_true();
  for (int i = 0; i < kN; ++i) {
    b.outputs.push_back(none_before & m.var(i));
    none_before &= !m.var(i);
  }
  return b;
}

Benchmark make_rot(Manager& m) {
  // Reduced stand-in: 16-bit barrel rotator, 4 select bits (20 in, 16 out).
  constexpr int kW = 16, kS = 4;
  ensure_vars(m, kW + kS);
  interleave_order(m, {{kW, kW + 1, kW + 2, kW + 3}});
  Benchmark b;
  b.name = "rot";
  b.num_inputs = kW + kS;
  const Word sel = input_word(m, kW, kS);
  for (int i = 0; i < kW; ++i) {
    Bdd out = m.bdd_false();
    for (int s = 0; s < kW; ++s)
      out |= word_equals(sel, static_cast<std::uint64_t>(s)) & m.var((i + s) % kW);
    b.outputs.push_back(out);
  }
  return b;
}

Benchmark make_c499(Manager& m) {
  // Reduced single-error-correcting core: 16 data bits, 5 check bits, one
  // global enable (22 in); outputs the corrected data (16 out). Preserves
  // the XOR-dominated structure of C499.
  constexpr int kD = 16, kK = 5;
  ensure_vars(m, kD + kK + 1);
  Benchmark b;
  b.name = "C499";
  b.num_inputs = kD + kK + 1;
  const Bdd enable = m.var(kD + kK);
  // Data bit i carries the i-th value >= 3 that is not a power of two, so
  // patterns are pairwise distinct and distinct from single-check syndromes.
  auto pat = [](int i) {
    int v = 2;
    for (int remaining = i + 1; remaining > 0;) {
      ++v;
      if ((v & (v - 1)) != 0) --remaining;
    }
    return v;
  };
  Word syndrome;
  for (int j = 0; j < kK; ++j) {
    Bdd s = m.var(kD + j);
    for (int i = 0; i < kD; ++i)
      if ((pat(i) >> j) & 1) s ^= m.var(i);
    syndrome.push_back(s);
  }
  for (int i = 0; i < kD; ++i) {
    const Bdd flip = word_equals(syndrome, static_cast<std::uint64_t>(pat(i)));
    b.outputs.push_back(m.var(i) ^ (flip & enable));
  }
  return b;
}

Benchmark make_c880(Manager& m) {
  // Reduced datapath stand-in for C880 (8-bit ALU): a(8), b(8), c(8),
  // sel(4), pad(2) unused-in-easy-ways = 30 in; 14 out
  // (8 result + carry + zero + 4 group parities).
  ensure_vars(m, 30);
  {
    std::vector<int> a8, b8, c8;
    for (int i = 0; i < 8; ++i) a8.push_back(i), b8.push_back(8 + i), c8.push_back(16 + i);
    interleave_order(m, {{24, 25, 26, 27, 28, 29}, a8, b8, c8});
  }
  Benchmark b;
  b.name = "C880";
  b.num_inputs = 30;
  const Word a = input_word(m, 0, 8);
  const Word bw = input_word(m, 8, 8);
  const Word c = input_word(m, 16, 8);
  const Bdd s0 = m.var(24), s1 = m.var(25), s2 = m.var(26), s3 = m.var(27);
  const Bdd p0 = m.var(28), p1 = m.var(29);

  const Word sum = add_words(a, bw, s3);
  Word res;
  for (int i = 0; i < 8; ++i) {
    const Bdd ai = a[static_cast<std::size_t>(i)], bi = bw[static_cast<std::size_t>(i)],
              ci = c[static_cast<std::size_t>(i)];
    const Bdd arith = sum[static_cast<std::size_t>(i)];
    const Bdd logic = ((!s0) & (ai & bi)) | (s0 & (ai | ci));
    // s2 selects a third-operand bypass (mux network, no cross-bit XOR).
    res.push_back((s2 & ci) | ((!s2) & (((!s1) & arith) | (s1 & logic))));
  }
  Bdd zero = m.bdd_true();
  for (const Bdd& bit : res) zero &= !bit;
  b.outputs = res;
  b.outputs.push_back(sum[8] & !s1);
  b.outputs.push_back(zero);
  // Group comparators over input slices (local support).
  for (int g = 0; g < 4; ++g) {
    const std::size_t i0 = static_cast<std::size_t>(2 * g), i1 = i0 + 1;
    const Bdd eq = (a[i0].iff(bw[i0])) & (a[i1].iff(bw[i1]));
    b.outputs.push_back(eq & ((g % 2 == 0) ? p0 : p1));
  }
  return b;
}

Benchmark make_comparator(Manager& m, int w) {
  // Two w-bit operands; outputs (a < b, a == b, a > b).
  ensure_vars(m, 2 * w);
  {
    std::vector<int> av, bv;
    for (int i = 0; i < w; ++i) av.push_back(i), bv.push_back(w + i);
    interleave_order(m, {av, bv});
  }
  Benchmark b;
  b.name = "cmp" + std::to_string(w);
  b.num_inputs = 2 * w;
  Bdd lt = m.bdd_false(), eq = m.bdd_true();
  for (int i = w - 1; i >= 0; --i) {  // msb first
    const Bdd ai = m.var(i), bi = m.var(w + i);
    lt = lt | (eq & (!ai) & bi);
    eq = eq & !(ai ^ bi);
  }
  b.outputs = {lt, eq, !(lt | eq)};
  return b;
}

Benchmark make_gray(Manager& m, int w) {
  // Binary-to-Gray followed by a +1 on the binary side folded in:
  // out = gray(x + 1); mixes the XOR structure of Gray coding with a carry
  // chain (a compact multi-structure benchmark).
  ensure_vars(m, w);
  Benchmark b;
  b.name = "gray" + std::to_string(w);
  b.num_inputs = w;
  Word one{m.bdd_true()};
  Word inc = add_words(input_word(m, 0, w), one);
  inc.resize(static_cast<std::size_t>(w), m.bdd_false());
  for (int i = 0; i < w; ++i) {
    const Bdd hi = i + 1 < w ? inc[static_cast<std::size_t>(i + 1)] : m.bdd_false();
    b.outputs.push_back(inc[static_cast<std::size_t>(i)] ^ hi);
  }
  return b;
}

Benchmark make_majority(Manager& m, int n) {
  ensure_vars(m, n);
  Benchmark b;
  b.name = "maj" + std::to_string(n);
  b.num_inputs = n;
  std::vector<Bdd> bits;
  for (int i = 0; i < n; ++i) bits.push_back(m.var(i));
  const Word count = count_ones(m, bits);
  Bdd maj = m.bdd_false();
  for (std::uint64_t v = static_cast<std::uint64_t>(n) / 2 + 1;
       v <= static_cast<std::uint64_t>(n); ++v)
    maj |= word_equals(count, v);
  b.outputs = {maj};
  return b;
}

// ---- synthetic PLA-like generators ------------------------------------

/// Deterministic multi-output cube function mirroring the structure of
/// two-level MCNC benchmarks: cubes draw their literals from overlapping
/// *windows* of the input space (real PLA functions have local structure;
/// uniformly random cubes would be information-dense and essentially
/// undecomposable), a shared cube pool creates inter-output sharing, and
/// each output ORs cubes from a couple of windows.
Benchmark make_cubes(Manager& m, const std::string& name, int n_in, int n_out,
                     int pool_size, int cubes_per_output, int min_lits,
                     int max_lits, std::uint64_t seed) {
  ensure_vars(m, n_in);
  Benchmark b;
  b.name = name;
  b.num_inputs = n_in;
  Rng rng(seed);

  // Overlapping variable windows; each cube lives in one window.
  const int window = std::min(n_in, std::max(max_lits + 2, 8));
  const int stride = std::max(1, window / 2);
  std::vector<int> window_starts;
  for (int s = 0; s + window <= n_in; s += stride) window_starts.push_back(s);
  if (window_starts.empty()) window_starts.push_back(0);

  std::vector<Bdd> pool;
  std::vector<int> pool_window;
  pool.reserve(static_cast<std::size_t>(pool_size));
  for (int cIdx = 0; cIdx < pool_size; ++cIdx) {
    const int w = static_cast<int>(rng.below(window_starts.size()));
    const int start = window_starts[static_cast<std::size_t>(w)];
    const int lits = rng.range(min_lits, std::min(max_lits, window));
    std::vector<int> vars(static_cast<std::size_t>(window));
    for (int v = 0; v < window; ++v) vars[static_cast<std::size_t>(v)] = start + v;
    rng.shuffle(vars);
    Bdd cube = m.bdd_true();
    for (int l = 0; l < lits; ++l)
      cube &= m.literal(vars[static_cast<std::size_t>(l)], rng.flip());
    pool.push_back(cube);
    pool_window.push_back(w);
  }

  for (int o = 0; o < n_out; ++o) {
    // Each output draws from two adjacent windows.
    const int w0 = static_cast<int>(rng.below(window_starts.size()));
    const int w1 = std::min(static_cast<int>(window_starts.size()) - 1, w0 + 1);
    Bdd f = m.bdd_false();
    int taken = 0;
    for (int attempt = 0; attempt < 8 * cubes_per_output && taken < cubes_per_output;
         ++attempt) {
      const std::size_t cIdx = static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(pool_size)));
      if (pool_window[cIdx] != w0 && pool_window[cIdx] != w1) continue;
      f |= pool[cIdx];
      ++taken;
    }
    b.outputs.push_back(f);
  }
  return b;
}

}  // namespace

Benchmark build(const std::string& name, Manager& m) {
  static const std::map<std::string, std::function<Benchmark(Manager&)>> registry = {
      {"5xp1", [](Manager& mm) { return make_5xp1(mm); }},
      {"9sym", [](Manager& mm) { return make_9sym(mm); }},
      {"alu2", [](Manager& mm) { return make_alu(mm, "alu2", 4, 8); }},
      {"alu4", [](Manager& mm) { return make_alu(mm, "alu4", 6, 12); }},
      {"apex7", [](Manager& mm) {
         return make_cubes(mm, "apex7", 49, 37, 70, 7, 3, 6, 0xA9E871);
       }},
      {"b9", [](Manager& mm) {
         return make_cubes(mm, "b9", 41, 21, 48, 7, 3, 6, 0xB90001);
       }},
      {"C499", [](Manager& mm) { return make_c499(mm); }},
      {"C880", [](Manager& mm) { return make_c880(mm); }},
      {"clip", [](Manager& mm) { return make_clip(mm); }},
      {"count", [](Manager& mm) { return make_count(mm); }},
      {"duke2", [](Manager& mm) {
         return make_cubes(mm, "duke2", 22, 29, 60, 7, 3, 6, 0xD0CE2);
       }},
      {"e64", [](Manager& mm) { return make_e64(mm); }},
      {"f51m", [](Manager& mm) { return make_f51m(mm); }},
      {"misex1", [](Manager& mm) {
         return make_cubes(mm, "misex1", 8, 7, 20, 5, 2, 5, 0x315E1);
       }},
      {"misex2", [](Manager& mm) {
         return make_cubes(mm, "misex2", 25, 18, 44, 6, 3, 6, 0x315E2);
       }},
      {"rd53", [](Manager& mm) { return make_rd(mm, 5, 3); }},
      {"rd73", [](Manager& mm) { return make_rd(mm, 7, 3); }},
      {"rd84", [](Manager& mm) { return make_rd(mm, 8, 4); }},
      {"rot", [](Manager& mm) { return make_rot(mm); }},
      {"sao2", [](Manager& mm) {
         return make_cubes(mm, "sao2", 10, 4, 16, 6, 3, 6, 0x5A02);
       }},
      {"vg2", [](Manager& mm) {
         return make_cubes(mm, "vg2", 25, 8, 30, 6, 3, 6, 0x0062);
       }},
      {"z4ml", [](Manager& mm) { return make_z4ml(mm); }},
      // Convenience rows for the CLI and the figure experiments.
      {"add4", [](Manager& mm) { return adder(mm, 4); }},
      {"add8", [](Manager& mm) { return adder(mm, 8); }},
      {"add16", [](Manager& mm) { return adder(mm, 16); }},
      {"mult4", [](Manager& mm) { return multiplier(mm, 4); }},
      {"mult6", [](Manager& mm) { return multiplier(mm, 6); }},
      {"pm3", [](Manager& mm) { return partial_multiplier(mm, 3); }},
      {"pm4", [](Manager& mm) { return partial_multiplier(mm, 4); }},
      {"cmp8", [](Manager& mm) { return make_comparator(mm, 8); }},
      {"cmp16", [](Manager& mm) { return make_comparator(mm, 16); }},
      {"gray8", [](Manager& mm) { return make_gray(mm, 8); }},
      {"maj11", [](Manager& mm) { return make_majority(mm, 11); }},
  };
  const auto it = registry.find(name);
  if (it == registry.end()) {
    std::string known;
    for (const auto& [row, make] : registry) known += (known.empty() ? "" : ", ") + row;
    throw Error("unknown benchmark name '" + name + "' (known: " + known + ")");
  }
  return it->second(m);
}

std::vector<std::string> table_rows() {
  return {"5xp1", "9sym",   "alu2",   "apex7", "b9",   "C499", "C880",
          "clip", "count",  "duke2",  "e64",   "f51m", "misex1",
          "misex2", "rd73", "rd84",   "rot",   "sao2", "vg2",  "z4ml"};
}

}  // namespace mfd::circuits
