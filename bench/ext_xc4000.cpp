// Extension experiment (beyond the paper): the same mulop-dc flow targeting
// the Xilinx XC4000 (two independent 4-input generators + 3-input combiner
// per CLB), synthesized with n_LUT = 4. Reported next to the XC3000 numbers
// so the target comparison is apples-to-apples per circuit.
#include <map>

#include "bench_common.h"
#include "map/clb.h"

namespace {

struct Row {
  int xc3000 = 0;       // n_LUT = 5, matching merge
  int xc4000 = 0;       // n_LUT = 4, H-absorption + pairing
  int xc4000_luts = 0;
  int h_triples = 0;
};

std::map<std::string, Row> g_rows;

void run_circuit(benchmark::State& state, const std::string& name) {
  for (auto _ : state) {
    Row row;
    row.xc3000 = mfd::bench::run_flow(name, mfd::preset_mulop_dc(5), "mulop-dc").clb_matching;

    mfd::bdd::Manager m;
    const auto bench = mfd::circuits::build(name, m);
    const auto r4 = mfd::Synthesizer(mfd::preset_mulop_dc(4)).run(bench);
    const mfd::map::Xc4000Result packed = mfd::map::pack_xc4000(r4.network);
    row.xc4000 = packed.num_clbs;
    row.xc4000_luts = packed.num_luts;
    row.h_triples = packed.h_triples;
    g_rows[name] = row;
    state.counters["xc3000"] = row.xc3000;
    state.counters["xc4000"] = row.xc4000;
  }
}

void print_table() {
  std::printf("\nExtension: XC4000 target (n_LUT = 4, H-block absorption)\n");
  std::printf("vs the paper's XC3000 target (n_LUT = 5, matching merge).\n\n");
  std::printf("%-8s | %7s | %7s %6s %8s\n", "circuit", "XC3000", "XC4000", "LUTs",
               "Htriples");
  mfd::bench::print_rule(48);
  long t3 = 0, t4 = 0;
  for (const auto& [name, row] : g_rows) {
    t3 += row.xc3000;
    t4 += row.xc4000;
    std::printf("%-8s | %7d | %7d %6d %8d\n", name.c_str(), row.xc3000, row.xc4000,
                 row.xc4000_luts, row.h_triples);
  }
  mfd::bench::print_rule(48);
  std::printf("%-8s | %7ld | %7ld\n", "total", t3, t4);
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> circuits{"5xp1", "9sym", "alu2",   "clip",  "count",
                                          "f51m", "misex1", "rd73", "rd84",  "sao2",
                                          "vg2",  "z4ml"};
  for (const std::string& name : circuits)
    benchmark::RegisterBenchmark(("xc4000/" + name).c_str(),
                                 [name](benchmark::State& s) { run_circuit(s, name); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  mfd::bench::initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_table();
  mfd::bench::write_stats_json();
  return 0;
}
