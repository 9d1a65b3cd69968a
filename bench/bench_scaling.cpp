// Scaling study: synthesis time and result size as the instance grows
// (adders and multipliers by operand width). No direct paper counterpart —
// this tracks that the implementation stays laptop-scale, which is the
// regime the paper's experiments ran in.
#include "bench_common.h"

namespace {

struct Row {
  std::string name;
  int inputs = 0;
  int luts = 0;
  int clbs = 0;
  double seconds = 0;
};

std::vector<Row> g_rows;

void run_one(benchmark::State& state, const std::string& name) {
  for (auto _ : state) {
    const auto r = mfd::bench::run_flow(name, mfd::preset_mulop_dc(5), "mulop-dc");
    g_rows.push_back({name, r.inputs, r.luts, r.clb_matching, r.seconds});
    state.counters["luts"] = r.luts;
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* name : {"add4", "add8", "add16", "mult4", "mult6", "pm3", "pm4",
                           "rd73", "rd84", "alu2", "alu4"})
    benchmark::RegisterBenchmark((std::string("scaling/") + name).c_str(),
                                 [name](benchmark::State& s) { run_one(s, name); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  mfd::bench::initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  std::printf("\nScaling (mulop-dc, n_LUT = 5, matching CLB merge):\n\n");
  std::printf("%-8s %6s %6s %6s %8s\n", "circuit", "in", "LUTs", "CLBs", "time");
  mfd::bench::print_rule(40);
  for (const Row& r : g_rows)
    std::printf("%-8s %6d %6d %6d %7.2fs\n", r.name.c_str(), r.inputs, r.luts,
                 r.clbs, r.seconds);
  mfd::bench::write_stats_json();
  return 0;
}
