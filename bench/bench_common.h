// Shared helpers for the experiment harness binaries (one per paper
// table/figure, see DESIGN.md's per-experiment index).
//
// Every binary supports `--stats-json <path>` (or `--stats-json=<path>`):
// each run_flow() call is recorded with its full observability report and
// the collected records are written as one JSON document at exit. Call
// initialize() in place of benchmark::Initialize (it parses these flags,
// then Google Benchmark's, and exits with status 2 on any other argument)
// and write_stats_json() before returning from main.
//
// Robustness flags (applied by run_flow and cli_options):
//   --time-budget-ms <n>   wall-clock budget per synthesis run
//   --node-budget <n>      BDD node ceiling per synthesis run
//   --fault-inject <spec>  fault-injection rules (see core/faultinject.h)
//
// Pipeline flags (docs/PASSES.md):
//   --passes <spec>        pass pipeline, e.g. decompose,simplify,pack
//                          (default: the full pipeline with odc_resubst)
//   --no-odc               drop the odc_resubst pass from the pipeline;
//                          with the default pipeline this reproduces the
//                          pre-pipeline flow bit-identically
//
// Diagnostics:
//   --list-fault-sites     print the fault-injection sites/kinds and exit
// Budget overruns do not crash: the flow degrades (see docs/ROBUSTNESS.md)
// and the --stats-json record carries the DegradationReport. With
// --stats-json the document is also recommitted (temp + rename) after every
// run, so a mid-sweep crash keeps all completed records.
#pragma once

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "circuits/circuits.h"
#include "core/budget.h"
#include "core/faultinject.h"
#include "core/passes.h"
#include "core/synthesizer.h"
#include "io/blif.h"
#include "obs/json.h"

namespace mfd::bench {

struct FlowRun {
  std::string circuit;
  std::string flow;  ///< preset label ("mulop-dc", "mulopII", ...), may be empty
  int inputs = 0;
  int outputs = 0;
  int luts = 0;
  int clb_greedy = 0;
  int clb_matching = 0;
  int gates = 0;
  int depth = 0;
  /// FNV-1a hash of the network's BLIF text (io::write_blif, model name =
  /// circuit) as 16 hex digits: two sweeps whose records agree here built
  /// the same networks, not only networks of the same size. Empty when the
  /// run died on an error.
  std::string network;
  DecomposeStats stats;
  double seconds = 0.0;
  bool verified = false;
  DegradationReport degradation;  ///< whether and where this run degraded
  /// Non-empty when the run died on a typed error (e.g. a fault injected
  /// outside the degradation ladder); the sweep continues past it.
  std::string error;
  std::vector<net::PassStats> passes;  ///< pipeline trail of this run
  obs::Report report;  ///< phase tree + counters + gauges of this run
};

namespace detail {

struct StatsSink {
  std::string path;    // empty until --stats-json is seen
  std::string binary;  // argv[0] basename
  std::vector<std::string> rows;  // pre-serialized FlowRun objects
  ResourceBudget budget;  // from --time-budget-ms / --node-budget
  std::string passes;     // from --passes (empty = default pipeline)
  bool no_odc = false;    // from --no-odc
};

inline StatsSink& sink() {
  static StatsSink s;
  return s;
}

inline std::string flow_run_json(const FlowRun& row) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("circuit").value(row.circuit);
  w.key("flow").value(row.flow);
  w.key("inputs").value(row.inputs);
  w.key("outputs").value(row.outputs);
  w.key("luts").value(row.luts);
  w.key("clb_greedy").value(row.clb_greedy);
  w.key("clb_matching").value(row.clb_matching);
  w.key("gates").value(row.gates);
  w.key("depth").value(row.depth);
  w.key("network").value(row.network);
  w.key("seconds").value(row.seconds);
  w.key("decompose").begin_object();
  w.key("steps").value(row.stats.decomposition_steps);
  w.key("shannon_fallbacks").value(row.stats.shannon_fallbacks);
  w.key("functions").value(static_cast<std::int64_t>(row.stats.total_decomposition_functions));
  w.key("sum_r").value(static_cast<std::int64_t>(row.stats.sum_r));
  w.key("symmetrized_pairs").value(row.stats.symmetrized_pairs);
  w.key("max_depth").value(row.stats.max_depth);
  w.key("bdd_mux_fallbacks").value(row.stats.bdd_mux_fallbacks);
  w.key("encoding_pool_hits").value(static_cast<std::int64_t>(row.stats.encoding_pool_hits));
  w.end_object();
  w.key("verified").value(row.verified);
  w.key("error").value(row.error);
  w.key("passes").begin_array();
  for (const net::PassStats& p : row.passes) {
    w.begin_object();
    w.key("name").value(p.name);
    w.key("ran").value(p.ran);
    w.key("changed").value(p.changed);
    w.key("skip_reason").value(p.skip_reason);
    w.key("luts_before").value(p.luts_before);
    w.key("luts_after").value(p.luts_after);
    w.key("seconds").value(p.seconds);
    w.end_object();
  }
  w.end_array();
  w.key("degradation").begin_object();
  w.key("final_level").value(row.degradation.final_level);
  w.key("final_level_name").value(degrade_level_name(row.degradation.final_level));
  w.key("suspended_sections")
      .value(static_cast<std::int64_t>(row.degradation.suspended_sections));
  w.key("per_output_level").begin_array();
  for (int level : row.degradation.per_output_level) w.value(level);
  w.end_array();
  w.key("events").begin_array();
  for (const DegradeEvent& e : row.degradation.events) {
    w.begin_object();
    w.key("phase").value(e.phase);
    w.key("reason").value(e.reason);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("report").raw(row.report.to_json());
  w.end_object();
  return w.str();
}

/// FNV-1a of `text`, as 16 lowercase hex digits.
inline std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

/// strtol with a hard exit on garbage, a negative value or overflow: these
/// are operator-facing CLI flags, and silently running an *unbudgeted* sweep
/// would defeat their purpose.
inline long parse_flag_count(const char* flag, const char* value) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || v < 0) {
    std::fprintf(stderr, "%s expects an integer in [0, %ld], got '%s'\n", flag,
                 std::numeric_limits<long>::max(), value);
    std::exit(2);
  }
  return v;
}

}  // namespace detail

/// Parses the command line: first the harness flags, then Google
/// Benchmark's own (benchmark::Initialize). The harness flags are:
///   --stats-json <path>      record runs, write one JSON document at exit
///   --time-budget-ms <n>     per-run wall-clock budget (0 = unlimited)
///   --node-budget <n>        per-run BDD node ceiling (0 = unlimited)
///   --fault-inject <spec>    arm fault-injection rules (core/faultinject.h)
/// Flags taking a value also accept the --flag=value spelling. A missing or
/// empty value, a malformed fault spec or count, and any argument neither
/// parser knows exit with status 2 rather than running a different sweep.
inline void initialize(int* argc, char** argv) {
  detail::StatsSink& s = detail::sink();
  if (*argc > 0) {
    const char* slash = std::strrchr(argv[0], '/');
    s.binary = slash != nullptr ? slash + 1 : argv[0];
  }
  // The value of `flag` if argv[*i] is that flag (consuming the next
  // argument for the two-word spelling), else nullptr.
  auto value_of = [&](const char* flag, int* i) -> const char* {
    const char* arg = argv[*i];
    const std::size_t n = std::strlen(flag);
    const char* value = nullptr;
    if (std::strcmp(arg, flag) == 0)
      value = *i + 1 < *argc ? argv[++*i] : "";
    else if (std::strncmp(arg, flag, n) == 0 && arg[n] == '=')
      value = arg + n + 1;
    else
      return nullptr;
    if (*value == '\0') {
      std::fprintf(stderr, "%s expects a value\n", flag);
      std::exit(2);
    }
    return value;
  };
  auto apply = [&s](const char* flag, const char* value) {
    if (std::strcmp(flag, "--stats-json") == 0) {
      s.path = value;
    } else if (std::strcmp(flag, "--time-budget-ms") == 0) {
      s.budget.time_ms = static_cast<double>(detail::parse_flag_count(flag, value));
    } else if (std::strcmp(flag, "--node-budget") == 0) {
      s.budget.node_ceiling =
          static_cast<std::size_t>(detail::parse_flag_count(flag, value));
    } else if (std::strcmp(flag, "--passes") == 0) {
      s.passes = value;
    } else {  // --fault-inject
      try {
        fault::configure(value);
      } catch (const ParseError& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
      }
    }
  };
  static constexpr const char* kFlags[] = {"--stats-json", "--time-budget-ms",
                                           "--node-budget", "--fault-inject",
                                           "--passes"};
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    bool consumed = false;
    if (std::strcmp(arg, "--no-odc") == 0) {  // valueless flag
      s.no_odc = true;
      continue;
    }
    if (std::strcmp(arg, "--list-fault-sites") == 0) {
      std::printf("instrumented fault sites (arm with --fault-inject "
                  "'site@k[:kind]', see docs/ROBUSTNESS.md):\n");
      for (const std::string& site : fault::registered_sites())
        std::printf("  %s\n", site.c_str());
      std::printf("kinds:");
      bool first = true;
      for (const std::string& kind : fault::kind_names()) {
        std::printf("%s %s%s", first ? "" : ",", kind.c_str(),
                    first ? " (default)" : "");
        first = false;
      }
      std::printf("\n");
      std::exit(0);
    }
    for (const char* flag : kFlags)
      if (const char* value = value_of(flag, &i)) {
        apply(flag, value);
        consumed = true;
        break;
      }
    if (!consumed) argv[out++] = argv[i];
  }
  *argc = out;
  benchmark::Initialize(argc, argv);
  if (benchmark::ReportUnrecognizedArguments(*argc, argv)) std::exit(2);
}

/// The budget requested on the command line ({} when none was given).
inline const ResourceBudget& cli_budget() { return detail::sink().budget; }

/// The effective pipeline spec from --passes / --no-odc ("" = default
/// pipeline). --no-odc filters odc_resubst out of whatever pipeline was
/// chosen, so it composes with an explicit --passes.
inline std::string cli_passes() {
  const detail::StatsSink& s = detail::sink();
  if (!s.no_odc) return s.passes;
  const std::string base = s.passes.empty() ? default_pipeline_spec() : s.passes;
  std::string out;
  for (const std::string& name : net::parse_pipeline_spec(base)) {
    if (name == "odc_resubst") continue;
    if (!out.empty()) out += ',';
    out += name;
  }
  return out;
}

namespace detail {

/// Commits the stats document so far to the --stats-json path via temp +
/// fsync + rename: a reader (or a crash) never sees a torn document, and a
/// mid-sweep death keeps every completed record.
inline void flush_stats_json() {
  const StatsSink& s = sink();
  if (s.path.empty()) return;
  obs::JsonWriter w;
  w.begin_object();
  w.key("binary").value(s.binary);
  w.key("runs").begin_array();
  for (const std::string& row : s.rows) w.raw(row);
  w.end_array();
  w.end_object();
  const std::string tmp = s.path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", tmp.c_str());
    return;
  }
  std::fputs(w.str().c_str(), f);
  std::fputc('\n', f);
  std::fflush(f);
  ::fsync(::fileno(f));
  std::fclose(f);
  if (std::rename(tmp.c_str(), s.path.c_str()) != 0)
    std::fprintf(stderr, "cannot rename %s to %s\n", tmp.c_str(), s.path.c_str());
}

}  // namespace detail

/// Records a completed flow run for --stats-json output (no-op when the flag
/// was not given) and incrementally recommits the stats document, so a
/// mid-sweep crash loses at most the in-flight run. run_flow() calls this
/// automatically.
inline void record_run(const FlowRun& row) {
  detail::StatsSink& s = detail::sink();
  if (s.path.empty()) return;
  s.rows.push_back(detail::flow_run_json(row));
  detail::flush_stats_json();
}

/// Final commit of the collected records plus the console summary. Safe to
/// call unconditionally at the end of main.
inline void write_stats_json() {
  const detail::StatsSink& s = detail::sink();
  if (s.path.empty()) return;
  detail::flush_stats_json();
  std::printf("stats written to %s (%zu runs)\n", s.path.c_str(), s.rows.size());
}

/// `opts` with the command line applied: any --time-budget-ms /
/// --node-budget overrides the budget fields (only the ones actually given),
/// and --passes / --no-odc the pipeline. Every flow of a bench binary runs
/// under these options, through run_flow or directly.
inline SynthesisOptions cli_options(SynthesisOptions opts) {
  const ResourceBudget& cli = cli_budget();
  if (cli.time_ms > 0.0) opts.budget.time_ms = cli.time_ms;
  if (cli.node_ceiling != 0) opts.budget.node_ceiling = cli.node_ceiling;
  if (const std::string p = cli_passes(); !p.empty()) opts.passes = p;
  return opts;
}

/// Runs one synthesis flow on a named benchmark in a fresh manager, under
/// cli_options(opts).
///
/// A typed error (a fault injected outside the degradation ladder, or a
/// budget trip even degradation could not absorb) does NOT kill the sweep:
/// the row is recorded with `error` set and all-zero metrics, and the next
/// circuit runs.
inline FlowRun run_flow(const std::string& name, const SynthesisOptions& opts,
                        const std::string& flow = "") {
  FlowRun row;
  row.circuit = name;
  row.flow = flow;
  try {
    bdd::Manager m;
    const circuits::Benchmark bench = circuits::build(name, m);
    Synthesizer synth(cli_options(opts));
    const SynthesisResult r = synth.run(bench);
    row.inputs = bench.num_inputs;
    row.outputs = static_cast<int>(bench.outputs.size());
    row.luts = r.network.count_luts();
    row.clb_greedy = r.clb_greedy.num_clbs;
    row.clb_matching = r.clb_matching.num_clbs;
    row.gates = r.network.count_gates();
    row.depth = r.network.depth();
    row.network = detail::fnv1a_hex(io::write_blif(r.network, name));
    row.stats = r.stats;
    row.seconds = r.seconds;
    row.verified = r.verified;
    row.degradation = r.degradation;
    row.passes = r.passes;
    row.report = r.report;
  } catch (const Error& e) {
    row.error = e.what();
    std::fprintf(stderr, "%s: %s\n", name.c_str(), e.what());
  } catch (const std::bad_alloc&) {
    row.error = "allocation failure (bad_alloc)";
    std::fprintf(stderr, "%s: %s\n", name.c_str(), row.error.c_str());
  }
  record_run(row);
  return row;
}

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace mfd::bench
