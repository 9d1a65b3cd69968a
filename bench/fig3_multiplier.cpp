// Figure 3 of the paper: the partial multiplier pm_n (the n*n partial
// products are inputs; outputs are the 2n product bits) synthesized into
// two-input gates — the "columnwise addition" scheme the tool discovers.
//
// Two claims to reproduce:
//  (a) the don't-care assignment is *essential*: without it the pm_4
//      realization needs ~75% more gates;
//  (b) the synthesized network is competitive with the Wallace-tree
//      reduction [23] (~10n^2 - 20n gates counting the operand ANDs, i.e.
//      ~10n^2 - 20n - n^2 over partial-product inputs).
#include "bench_common.h"
#include "net/baselines.h"

namespace {

using mfd::bench::cli_options;

struct PmRow {
  int n = 0;
  int dc_gates = 0, dc_depth = 0;
  int nodc_gates = 0, nodc_depth = 0;
  int wallace_gates = 0, wallace_depth = 0;
  bool verified = false;
};

std::vector<PmRow> g_rows;

void run_pm(benchmark::State& state, int n) {
  for (auto _ : state) {
    PmRow row;
    row.n = n;
    {
      mfd::bdd::Manager m;
      const auto bench = mfd::circuits::partial_multiplier(m, n);
      const auto r = mfd::Synthesizer(cli_options(mfd::preset_mulop_dc(2))).run(bench);
      row.dc_gates = r.network.count_gates();
      row.dc_depth = r.network.depth();
      row.verified = r.verified;
    }
    {
      mfd::bdd::Manager m;
      const auto bench = mfd::circuits::partial_multiplier(m, n);
      const auto r = mfd::Synthesizer(cli_options(mfd::preset_mulopII(2))).run(bench);
      row.nodc_gates = r.network.count_gates();
      row.nodc_depth = r.network.depth();
    }
    const auto wallace = mfd::net::wallace_tree_pp(n);
    row.wallace_gates = wallace.count_gates();
    row.wallace_depth = wallace.depth();
    g_rows.push_back(row);
    state.counters["dc_gates"] = row.dc_gates;
    state.counters["nodc_gates"] = row.nodc_gates;
    state.counters["wallace_gates"] = row.wallace_gates;
  }
}

void print_table() {
  std::printf("\nFigure 3: partial multipliers pm_n as two-input gate networks.\n");
  std::printf("paper: without DC assignment, pm_4 needs ~75%% more gates;\n");
  std::printf("Wallace-tree comparison ~ 10n^2 - 20n gates (incl. operand ANDs).\n\n");
  std::printf("%3s | %9s %6s | %9s %6s | %8s | %9s %6s | %s\n", "n", "mulop-dc",
               "depth", "no-DC", "depth", "overhead", "wallace", "depth", "verified");
  mfd::bench::print_rule(84);
  for (const PmRow& row : g_rows)
    std::printf("%3d | %9d %6d | %9d %6d | %+7.0f%% | %9d %6d | %s\n", row.n,
                 row.dc_gates, row.dc_depth, row.nodc_gates, row.nodc_depth,
                 100.0 * (row.nodc_gates - row.dc_gates) / std::max(1, row.dc_gates),
                 row.wallace_gates, row.wallace_depth, row.verified ? "yes" : "NO");
  std::printf("\nshape checks: (a) the no-DC flow needs substantially more gates\n");
  std::printf("(paper: +75%% at n = 4); (b) mulop-dc is in the same class as the\n");
  std::printf("Wallace reduction.\n");
}

}  // namespace

int main(int argc, char** argv) {
  for (const int n : {2, 3, 4})
    benchmark::RegisterBenchmark(("fig3/pm" + std::to_string(n)).c_str(),
                                 [n](benchmark::State& s) { run_pm(s, n); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  mfd::bench::initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_table();
  mfd::bench::write_stats_json();
  return 0;
}
