// Quickstart: decompose a small multi-output function into 5-input LUTs,
// verify the result exactly, pack it into XC3000 CLBs, and dump BLIF.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/synthesizer.h"
#include "io/blif.h"

int main() {
  using namespace mfd;

  // A 7-input, 3-output specification built directly from BDDs:
  // majority-of-five, a parity slice, and an interval detector.
  bdd::Manager m(7);
  std::vector<bdd::Bdd> bits;
  for (int i = 0; i < 7; ++i) bits.push_back(m.var(i));

  const circuits::Word count = circuits::count_ones(m, {bits.begin(), bits.begin() + 5});
  const bdd::Bdd majority5 = count[2] | (count[1] & count[0] & !count[2]);  // >= 3 of 5
  const bdd::Bdd parity = bits[2] ^ bits[3] ^ bits[4] ^ bits[5] ^ bits[6];
  const bdd::Bdd window = (bits[0] | bits[1]) & !(bits[5] & bits[6]);

  std::vector<Isf> spec{
      Isf::completely_specified(majority5),
      Isf::completely_specified(parity),
      Isf::completely_specified(window),
  };
  std::vector<int> pi_vars{0, 1, 2, 3, 4, 5, 6};

  // The full paper flow: 3-step don't-care assignment, shared decomposition
  // functions, recursive decomposition into 5-input LUTs.
  Synthesizer synth(preset_mulop_dc(5));
  const SynthesisResult result = synth.run(spec, pi_vars);

  std::printf("synthesized: %s\n", result.network.to_string().c_str());
  std::printf("verified against spec: %s\n", result.verified ? "yes" : "NO");
  std::printf("XC3000 CLBs: %d (greedy merge), %d (matching merge)\n",
              result.clb_greedy.num_clbs, result.clb_matching.num_clbs);
  std::printf("decomposition steps: %d, functions emitted: %ld (sum r_i = %ld)\n",
              result.stats.decomposition_steps,
              result.stats.total_decomposition_functions, result.stats.sum_r);
  // Sharing inside this run: decomposition functions reused across outputs
  // by the encoder pool (docs/CACHING.md). Bound-set class queries that an
  // output view answered from its stored answer for a repeated cut show in
  // the result.report counter boundset.reused_outputs.
  std::printf("encoder pool reuses: %ld\n", result.stats.encoding_pool_hits);

  std::printf("\nBLIF netlist:\n%s", io::write_blif(result.network, "quickstart").c_str());
  return result.verified ? 0 : 1;
}
