// Ablation D: the paper's Section 3 design argument.
//
// [10] (Lai/Pedram/Vrudhula) minimizes the *total* number of decomposition
// functions by encoding the joint partition once for all outputs; the paper
// instead keeps every r_i minimal (r_i = ceil(log2 ncc_i)) and shares what
// can be shared, because with a joint code "the number of inputs of g_i can
// be (much) larger" and composition functions stop fitting LUTs. This
// benchmark runs both encodings through the identical rest of the flow.
#include <map>

#include "bench_common.h"

namespace {

using mfd::bench::FlowRun;
using mfd::bench::run_flow;

const std::vector<std::string> kCircuits{"5xp1", "rd73", "rd84", "z4ml",
                                         "alu2", "clip", "misex1", "count"};

std::map<std::string, std::pair<FlowRun, FlowRun>> g_rows;

void run_circuit(benchmark::State& state, const std::string& name) {
  for (auto _ : state) {
    const FlowRun ours = run_flow(name, mfd::preset_mulop_dc(5), "mulop-dc");
    mfd::SynthesisOptions total = mfd::preset_mulop_dc(5);
    total.decomp.total_minimal_code = true;
    const FlowRun theirs = run_flow(name, total, "total-code");
    g_rows[name] = {ours, theirs};
    state.counters["clb_per_output_minimal"] = ours.clb_greedy;
    state.counters["clb_total_minimal"] = theirs.clb_greedy;
  }
}

void print_table() {
  std::printf("\nAblation D: per-output-minimal codes (this paper) vs the\n");
  std::printf("total-minimal joint code of [10], identical flow otherwise.\n\n");
  std::printf("%-8s | %10s %7s | %10s %7s\n", "circuit", "per-output", "alpha",
               "total-min", "alpha");
  mfd::bench::print_rule(52);
  long t_ours = 0, t_theirs = 0;
  for (const auto& [name, rows] : g_rows) {
    const auto& [ours, theirs] = rows;
    t_ours += ours.clb_greedy;
    t_theirs += theirs.clb_greedy;
    std::printf("%-8s | %10d %7ld | %10d %7ld\n", name.c_str(), ours.clb_greedy,
                 ours.stats.total_decomposition_functions, theirs.clb_greedy,
                 theirs.stats.total_decomposition_functions);
  }
  mfd::bench::print_rule(52);
  std::printf("%-8s | %10ld %9s | %10ld\n", "total", t_ours, "", t_theirs);
  std::printf("\nshape check: the joint code may emit fewer alpha functions but\n");
  std::printf("costs CLBs overall — the paper's reason for per-output minima.\n");
}

}  // namespace

int main(int argc, char** argv) {
  for (const std::string& name : kCircuits)
    benchmark::RegisterBenchmark(("ablationD/" + name).c_str(),
                                 [name](benchmark::State& s) { run_circuit(s, name); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  mfd::bench::initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_table();
  mfd::bench::write_stats_json();
  return 0;
}
