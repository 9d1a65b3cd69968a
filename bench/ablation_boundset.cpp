// Ablation C (DESIGN.md): bound-set search quality.
//
// The paper seeds the search with symmetric sifting and explores exchanges
// of symmetric variable groups. We compare: (a) the full search (window scan
// + exchange refinement), (b) windows only (no exchange refinement), (c) a
// crippled search seeing only the first window. The symmetric sift always
// runs: it moves only BDD sizes, never a network, so it is not an axis here.
#include <map>

#include "bench_common.h"

namespace {

using mfd::bench::run_flow;

const std::vector<std::string> kCircuits{"5xp1", "rd84", "9sym", "clip",
                                         "z4ml", "alu2", "misex1", "sao2"};

struct Config {
  const char* label;
  int improvement_passes;
  int max_evaluations;
};

const Config kConfigs[] = {
    {"full", 2, 200},
    {"windows", 0, 200},
    {"first", 0, 1},
};

std::map<std::string, std::map<std::string, int>> g_rows;

void run_circuit(benchmark::State& state, const std::string& name) {
  for (auto _ : state) {
    for (const Config& cfg : kConfigs) {
      mfd::SynthesisOptions opts = mfd::preset_mulop_dc(5);
      opts.decomp.boundset.improvement_passes = cfg.improvement_passes;
      opts.decomp.boundset.max_evaluations = cfg.max_evaluations;
      const auto row = run_flow(name, opts, cfg.label);
      g_rows[name][cfg.label] = row.clb_greedy;
      state.counters[cfg.label] = row.clb_greedy;
    }
  }
}

void print_table() {
  std::printf("\nAblation C: bound-set search (CLB counts, n_LUT = 5).\n\n");
  std::printf("%-8s |", "circuit");
  for (const Config& cfg : kConfigs) std::printf(" %8s", cfg.label);
  std::printf("\n");
  mfd::bench::print_rule(39);
  std::map<std::string, long> totals;
  for (const auto& [name, cols] : g_rows) {
    std::printf("%-8s |", name.c_str());
    for (const Config& cfg : kConfigs) {
      std::printf(" %8d", cols.at(cfg.label));
      totals[cfg.label] += cols.at(cfg.label);
    }
    std::printf("\n");
  }
  mfd::bench::print_rule(39);
  std::printf("%-8s |", "total");
  for (const Config& cfg : kConfigs) std::printf(" %8ld", totals[cfg.label]);
  std::printf("\n\nshape check: full <= windows <= first; the search matters.\n");
}

}  // namespace

int main(int argc, char** argv) {
  for (const std::string& name : kCircuits)
    benchmark::RegisterBenchmark(("ablationC/" + name).c_str(),
                                 [name](benchmark::State& s) { run_circuit(s, name); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  mfd::bench::initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_table();
  mfd::bench::write_stats_json();
  return 0;
}
