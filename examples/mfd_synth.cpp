// mfd_synth: command-line front end for the full synthesis flow.
//
//   mfd_synth [options] <input.{pla,blif}|benchmark-name>
//
//   --lut <k>        LUT fanin bound, 2..15 (default 5; 2 = two-input gates)
//   --flow <name>    mulop-dc (default) | mulopII | noshare-nodc
//   --out <file>     write the synthesized network as BLIF (default: stdout
//                    summary only)
//   --out-pla <file> write the *specification* as a two-level PLA (ISOP
//                    cover; don't cares are spent on cover minimization)
//   --dot <file>     write the specification BDDs as graphviz
//   --no-verify      skip the exact post-synthesis check
//   --seed <n>       heuristic tie-breaking seed
//   --stats-json <file>
//                    write the run as one JSON document: circuit, flow, LUT
//                    size and count, CLB totals, depth, verified, and the
//                    observability report
//
// Inputs: a Berkeley PLA file (don't cares honored), a combinational BLIF
// model, or the name of one of the built-in benchmark generators
// (e.g. rd84, alu2 — see circuits::table_rows()).
//
// The report (docs/OBSERVABILITY.md) is the one the bench binaries write
// per run: the phase tree, counters such as the multiplicity cache's
// cache.multiplicity.* (docs/CACHING.md), and gauges. A missing or empty
// --stats-json path exits 2 like any malformed flag. A file of --out,
// --out-pla, --dot or --stats-json that cannot be written prints
// "error: cannot write <path>" and exits 1.
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/passes.h"
#include "core/synthesizer.h"
#include "io/blif.h"
#include "io/pla.h"
#include "obs/json.h"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Writes `text` to `path`; throws unless every byte reached the file.
void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Parses a whole decimal argument in [0, max]; throws on anything but
/// digits (strtoull would wrap a sign) and on overflow.
unsigned long long parse_number(const std::string& flag, const char* text,
                                unsigned long long max) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (text[0] < '0' || text[0] > '9' || *end != '\0' || errno == ERANGE || v > max)
    throw std::runtime_error(flag + " expects an integer in [0, " + std::to_string(max) +
                             "], got '" + text + "'");
  return v;
}

int usage() {
  std::fprintf(stderr,
               "usage: mfd_synth [--lut k] [--flow mulop-dc|mulopII|noshare-nodc]\n"
               "                 [--out file.blif] [--out-pla file.pla] [--dot file.dot]\n"
               "                 [--no-verify] [--seed n] [--stats-json file.json]\n"
               "                 <input.{pla,blif}|benchmark-name>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mfd;

  int lut = 5;
  std::string flow = "mulop-dc";
  std::string out_path, out_pla_path, dot_path, stats_path, input;
  bool verify = true;
  std::uint64_t seed = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--lut") lut = static_cast<int>(parse_number(arg, next(), INT_MAX));
      else if (arg == "--flow") flow = next();
      else if (arg == "--out") out_path = next();
      else if (arg == "--out-pla") out_pla_path = next();
      else if (arg == "--dot") dot_path = next();
      else if (arg == "--no-verify") verify = false;
      else if (arg == "--seed") seed = parse_number(arg, next(), UINT64_MAX);
      else if (arg == "--stats-json") {
        stats_path = next();
        if (stats_path.empty()) throw std::runtime_error("--stats-json expects a path");
      } else if (arg == "--help" || arg == "-h") return usage();
      else if (!arg.empty() && arg[0] == '-') return usage();
      else input = arg;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return usage();
    }
  }
  if (input.empty()) return usage();

  SynthesisOptions opts;
  if (flow == "mulop-dc") opts = preset_mulop_dc(lut);
  else if (flow == "mulopII") opts = preset_mulopII(lut);
  else if (flow == "noshare-nodc") opts = preset_noshare_nodc(lut);
  else return usage();
  opts.verify = verify;
  opts.decomp.seed = seed;

  try {
    build_pipeline(opts.passes, opts);  // rejects an out-of-range --lut before any work
    bdd::Manager m;
    std::vector<Isf> spec;
    std::vector<std::string> in_names, out_names;
    std::string model_name = input;

    if (ends_with(input, ".pla")) {
      const io::PlaFile pla = io::parse_pla(read_file(input), input);
      spec = io::pla_to_isfs(pla, m);
      in_names = pla.input_names;
      out_names = pla.output_names;
    } else if (ends_with(input, ".blif")) {
      const io::BlifModel model = io::parse_blif(read_file(input), m, input);
      for (const bdd::Bdd& f : model.functions)
        spec.push_back(Isf::completely_specified(f));
      in_names = model.inputs;
      out_names = model.outputs;
      if (!model.name.empty()) model_name = model.name;
    } else {
      const circuits::Benchmark bench = circuits::build(input, m);
      for (const bdd::Bdd& f : bench.outputs)
        spec.push_back(Isf::completely_specified(f));
    }

    const int n_in = m.num_vars();
    std::vector<int> pi_vars(static_cast<std::size_t>(n_in));
    for (int i = 0; i < n_in; ++i) pi_vars[static_cast<std::size_t>(i)] = i;

    if (!out_pla_path.empty()) {
      write_file(out_pla_path,
                 io::write_pla(io::pla_from_isfs(spec, n_in, in_names, out_names)));
      std::printf("wrote %s (ISOP cover of the specification)\n", out_pla_path.c_str());
    }

    if (!dot_path.empty()) {
      std::vector<bdd::Edge> roots;
      for (const Isf& f : spec) roots.push_back(f.on().id());
      write_file(dot_path, m.to_dot(roots, out_names));
    }

    Synthesizer synth(opts);
    const SynthesisResult r = synth.run(spec, pi_vars);

    std::printf("%s: %d inputs, %zu outputs -> %s\n", model_name.c_str(), n_in,
                spec.size(), r.network.to_string().c_str());
    std::printf("flow %s (n_LUT=%d): CLBs greedy=%d matching=%d, %.2fs%s\n",
                flow.c_str(), lut, r.clb_greedy.num_clbs, r.clb_matching.num_clbs,
                r.seconds,
                verify ? (r.verified ? ", verified" : ", VERIFICATION FAILED")
                       : " (unverified)");
    std::printf("decomposition: %d steps, %ld functions (sum r_i %ld), "
                "%d shannon / %d mux fallbacks, depth %d\n",
                r.stats.decomposition_steps, r.stats.total_decomposition_functions,
                r.stats.sum_r, r.stats.shannon_fallbacks, r.stats.bdd_mux_fallbacks,
                r.stats.max_depth);
    std::printf("sharing: %ld encoder-pool reuses\n", r.stats.encoding_pool_hits);
    if (r.degradation.final_level != kDegradeFull)
      std::printf("note: degraded to ladder level %d (%s)\n",
                  r.degradation.final_level,
                  degrade_level_name(r.degradation.final_level));

    if (!out_path.empty()) {
      write_file(out_path, io::write_blif(r.network, model_name, in_names, out_names));
      std::printf("wrote %s\n", out_path.c_str());
    }

    if (!stats_path.empty()) {
      obs::JsonWriter w;
      w.begin_object();
      w.key("circuit").value(model_name);
      w.key("flow").value(flow);
      w.key("lut_inputs").value(lut);
      w.key("luts").value(r.network.count_luts());
      w.key("clb_greedy").value(r.clb_greedy.num_clbs);
      w.key("clb_matching").value(r.clb_matching.num_clbs);
      w.key("depth").value(r.network.depth());
      w.key("verified").value(r.verified);
      w.key("report").raw(r.report.to_json());
      w.end_object();
      write_file(stats_path, w.str() + '\n');
      std::printf("stats written to %s\n", stats_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
