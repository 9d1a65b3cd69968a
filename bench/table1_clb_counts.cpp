// Table 1 of the paper: XC3000 CLB counts without / with don't-care
// exploitation (mulopII vs mulop-dc), n_LUT = 5, greedy (first-fit) LUT->CLB
// merge for both flows.
//
// The paper reports CLB reductions of up to 35% (alu2) and > 10% overall;
// the absolute counts here are over our benchmark stand-ins (see DESIGN.md),
// so the comparison of interest is the *ratio* per row and in total.
#include <map>

#include "bench_common.h"

namespace {

using mfd::bench::FlowRun;
using mfd::bench::run_flow;

std::map<std::string, std::pair<FlowRun, FlowRun>> g_rows;

void run_circuit(benchmark::State& state, const std::string& name) {
  for (auto _ : state) {
    const FlowRun base = run_flow(name, mfd::preset_mulopII(5), "mulopII");
    const FlowRun dc = run_flow(name, mfd::preset_mulop_dc(5), "mulop-dc");
    g_rows[name] = {base, dc};
    state.counters["clb_mulopII"] = base.clb_greedy;
    state.counters["clb_mulop_dc"] = dc.clb_greedy;
  }
}

void print_table() {
  std::printf("\nTable 1: CLB counts for the XC3000 device (n_LUT = 5),\n");
  std::printf("without (mulopII: all DCs := 0) and with (mulop-dc) the 3-step\n");
  std::printf("don't-care assignment; first-fit CLB merge in both flows.\n\n");
  std::printf("%-8s %4s %4s | %9s %9s | %7s\n", "circuit", "in", "out", "mulopII",
               "mulop-dc", "ratio");
  mfd::bench::print_rule(56);
  long total_base = 0, total_dc = 0;
  for (const auto& [name, rows] : g_rows) {
    const auto& [base, dc] = rows;
    total_base += base.clb_greedy;
    total_dc += dc.clb_greedy;
    std::printf("%-8s %4d %4d | %9d %9d | %6.2f%%\n", name.c_str(), base.inputs,
                 base.outputs, base.clb_greedy, dc.clb_greedy,
                 100.0 * dc.clb_greedy / std::max(1, base.clb_greedy));
  }
  mfd::bench::print_rule(56);
  std::printf("%-8s %9s | %9ld %9ld | %6.2f%%\n", "total", "", total_base, total_dc,
               100.0 * static_cast<double>(total_dc) / static_cast<double>(std::max(1L, total_base)));
  std::printf("\npaper's headline: mulop-dc <= mulopII overall, >10%% total\n");
  std::printf("reduction, largest gains on larger circuits (DCs only arise\n");
  std::printf("during recursion for these completely specified functions).\n");
}

}  // namespace

int main(int argc, char** argv) {
  for (const std::string& name : mfd::circuits::table_rows())
    benchmark::RegisterBenchmark(("table1/" + name).c_str(),
                                 [name](benchmark::State& s) { run_circuit(s, name); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  mfd::bench::init_stats(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_table();
  mfd::bench::write_stats_json();
  return 0;
}
