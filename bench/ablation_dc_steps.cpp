// Ablation A (DESIGN.md): contribution of each don't-care assignment step.
//
// The paper argues the three steps are *compatible* (later steps never undo
// earlier ones) and each contributes: symmetries (step 1) shrink
// decomposition-function counts recursively, the joint assignment (step 2)
// enables sharing, and the per-output assignment (step 3) minimizes each
// ncc. We toggle each step independently on a representative subset.
#include <map>

#include "bench_common.h"

namespace {

using mfd::bench::run_flow;

const std::vector<std::string> kCircuits{"5xp1", "rd84", "alu2", "clip",
                                         "misex1", "z4ml", "sao2", "f51m"};

struct Config {
  const char* label;
  bool s1, s2, s3;
};

const Config kConfigs[] = {
    {"none", false, false, false},  // DCs still propagated, never assigned
    {"s1", true, false, false},
    {"s2", false, true, false},
    {"s3", false, false, true},
    {"s2+s3", false, true, true},
    {"all", true, true, true},
};

std::map<std::string, std::map<std::string, int>> g_rows;  // circuit -> label -> clbs

mfd::SynthesisOptions config_options(const Config& cfg) {
  mfd::SynthesisOptions opts = mfd::preset_mulop_dc(5);
  opts.decomp.dc_symmetrize = cfg.s1;
  opts.decomp.dc_joint = cfg.s2;
  opts.decomp.dc_per_output = cfg.s3;
  return opts;
}

void run_circuit(benchmark::State& state, const std::string& name) {
  for (auto _ : state) {
    for (const Config& cfg : kConfigs) {
      const auto row = run_flow(name, config_options(cfg), cfg.label);
      g_rows[name][cfg.label] = row.clb_greedy;
      state.counters[cfg.label] = row.clb_greedy;
    }
  }
}

void print_table() {
  std::printf("\nAblation A: CLB counts with individual DC-assignment steps\n");
  std::printf("(s1 = symmetrization, s2 = joint/sharing, s3 = per-output).\n");
  std::printf("'none' still *propagates* DCs but never assigns them.\n\n");
  std::printf("%-8s |", "circuit");
  for (const Config& cfg : kConfigs) std::printf(" %6s", cfg.label);
  std::printf("\n");
  mfd::bench::print_rule(56);
  std::map<std::string, long> totals;
  for (const auto& [name, cols] : g_rows) {
    std::printf("%-8s |", name.c_str());
    for (const Config& cfg : kConfigs) {
      std::printf(" %6d", cols.at(cfg.label));
      totals[cfg.label] += cols.at(cfg.label);
    }
    std::printf("\n");
  }
  mfd::bench::print_rule(56);
  std::printf("%-8s |", "total");
  for (const Config& cfg : kConfigs) std::printf(" %6ld", totals[cfg.label]);
  std::printf("\n\nshape check: 'all' <= each single step <= 'none' (approximately;\n");
  std::printf("individual steps may interact on small circuits).\n");
}

}  // namespace

int main(int argc, char** argv) {
  for (const std::string& name : kCircuits)
    benchmark::RegisterBenchmark(("ablationA/" + name).c_str(),
                                 [name](benchmark::State& s) { run_circuit(s, name); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  mfd::bench::initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_table();
  mfd::bench::write_stats_json();
  return 0;
}
