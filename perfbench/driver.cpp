// Benchmark driver: one workload run per process, single caller, closed
// loop (the next flow starts when the previous one returns).
//
//   perfbench_driver --workload <table1|table1-noodc|dc-specs> --seed <n>
//                    --passes <n> --trace <0|1> --out <file.json>
//
// A *flow* is one synthesis of one input under one preset (mulopII or
// mulop-dc), timed from outside the library around public calls only:
//   table1*   circuits::build + Synthesizer::run
//   dc-specs  io::parse_pla + io::pla_to_isfs + Synthesizer::run +
//             io::write_blif
// The BDD manager of a flow is created and destroyed inside its timing.
//
// The driver runs the workload's flows `--passes` times (caches cleared
// before each pass, so every pass starts cold). With --trace 1 it then runs
// one more pass that replaces Synthesizer::run by the same pipeline driven
// pass by pass under spans, and checks that it builds bit-identical
// networks. Every flow's network is checked against a reference that does
// not use the library's own verifier: random vectors against BDD evaluation
// of the circuit (table1*), or all minterms against the generator's
// truth tables (dc-specs), through the evaluator in this file.
//
// Between flows, and before every set-up, the driver times a fixed speed
// probe that runs no library code (probe_s).
//
// Raw records (flows with their obs reports and probe times, spans, set-up
// and probe times, peak RSS) go to --out as JSON; perfbench/run.py turns
// them into metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory_resource>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bdd/bdd.h"
#include "cache/cache.h"
#include "circuits/circuits.h"
#include "core/budget.h"
#include "core/errors.h"
#include "core/passes.h"
#include "core/synthesizer.h"
#include "io/blif.h"
#include "io/pla.h"
#include "net/lutnet.h"
#include "net/simulate.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "verify/specgen.h"

namespace {

using Clock = std::chrono::steady_clock;
using Words = std::vector<std::uint64_t>;

// Set-up is repeated this many times per run; run.py reports the median.
constexpr int kSetupRepeats = 5;
// Random reference vectors per table1 circuit, in 64-vector words.
constexpr int kRefWords = 32;
// The dc-specs pool: spec i is generate_spec(kSpecSeedBase + i). The pool is
// fixed, so every --seed measures the same specs (the seed orders them).
constexpr int kSpecCount = 60;
constexpr std::uint64_t kSpecSeedBase = 1;
const mfd::verify::SpecGenOptions kSpecShape{8, 11, 1, 8};

const Clock::time_point g_origin = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_origin).count();
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Speed probe
// ---------------------------------------------------------------------------

// One speed probe inserts and then looks up this many random keys out of
// kProbeKeySpace: a table of about 2 MiB and about 4 ms of work. The table
// lives in a buffer of its own, so the state the library leaves in the heap
// does not change the probe's work.
constexpr int kProbeKeys = 60000;
constexpr std::uint64_t kProbeKeySpace = std::uint64_t{1} << 20;
constexpr std::size_t kProbeArenaBytes = std::size_t{3} << 20;
volatile std::uint64_t g_probe_sink = 0;  // keeps the probe's work

/// Seconds of a fixed amount of work that uses no library code: inserts and
/// lookups of random keys in a hash table, so it hashes and chases pointers
/// as the library's tables do. The driver runs it before and after every
/// timed flow and before every set-up, so run.py can state times at a fixed
/// machine speed.
double probe_s() {
  static std::vector<std::byte> arena(kProbeArenaBytes);
  const Clock::time_point t0 = Clock::now();
  std::pmr::monotonic_buffer_resource pool(arena.data(), arena.size(),
                                           std::pmr::null_memory_resource());
  std::pmr::unordered_map<std::uint64_t, std::uint32_t> table(&pool);
  table.reserve(kProbeKeys);
  std::uint64_t state = 7, sum = 0;
  for (int i = 0; i < kProbeKeys; ++i) table[splitmix64(state) % kProbeKeySpace] += 1;
  for (int i = 0; i < kProbeKeys; ++i) {
    const auto it = table.find(splitmix64(state) % kProbeKeySpace);
    if (it != table.end()) sum += it->second;
  }
  g_probe_sink = sum;
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Reference check
// ---------------------------------------------------------------------------

/// Input vectors and the expected output planes, bit-parallel: bit b of
/// word w of pi[i] is input i of vector 64*w+b; an output is checked where
/// its care bit is set.
struct Reference {
  std::vector<Words> pi;
  std::vector<Words> on;
  std::vector<Words> care;
};

/// Evaluates every LUT of `net` on the vectors of `pi` (64 at a time) and
/// returns the output words. Independent of LutNetwork::evaluate.
std::vector<Words> evaluate_network(const mfd::net::LutNetwork& net,
                                    const std::vector<Words>& pi) {
  const std::size_t words = pi.empty() ? 0 : pi.front().size();
  const int npi = net.num_primary_inputs();
  std::vector<Words> lut_val(static_cast<std::size_t>(net.num_luts()));
  auto value = [&](int s, std::size_t w) -> std::uint64_t {
    if (s == mfd::net::kConst0) return 0;
    if (s == mfd::net::kConst1) return ~std::uint64_t{0};
    if (s < npi) return pi[static_cast<std::size_t>(s)][w];
    return lut_val[static_cast<std::size_t>(s - npi)][w];
  };
  for (int i = 0; i < net.num_luts(); ++i) {
    const mfd::net::Lut& lut = net.lut(i);
    Words& out = lut_val[static_cast<std::size_t>(i)];
    out.assign(words, 0);
    for (std::size_t w = 0; w < words; ++w) {
      std::vector<std::uint64_t> in(lut.inputs.size());
      for (std::size_t j = 0; j < lut.inputs.size(); ++j) in[j] = value(lut.inputs[j], w);
      std::uint64_t word = 0;
      for (int b = 0; b < 64; ++b) {
        std::size_t idx = 0;
        for (std::size_t j = 0; j < in.size(); ++j) idx |= ((in[j] >> b) & 1u) << j;
        if (lut.table[idx]) word |= std::uint64_t{1} << b;
      }
      out[w] = word;
    }
  }
  std::vector<Words> outs;
  for (int s : net.outputs()) {
    Words o(words);
    for (std::size_t w = 0; w < words; ++w) o[w] = value(s, w);
    outs.push_back(std::move(o));
  }
  return outs;
}

/// Empty string when the network matches the reference, else why not.
std::string reference_mismatch(const mfd::net::LutNetwork& net, const Reference& ref) {
  if (net.num_primary_inputs() != static_cast<int>(ref.pi.size()))
    return "primary input count differs";
  if (net.num_outputs() != static_cast<int>(ref.on.size()))
    return "output count differs";
  const std::vector<Words> outs = evaluate_network(net, ref.pi);
  for (std::size_t o = 0; o < outs.size(); ++o)
    for (std::size_t w = 0; w < outs[o].size(); ++w)
      if (((outs[o][w] ^ ref.on[o][w]) & ref.care[o][w]) != 0)
        return "output " + std::to_string(o) + " differs in vector word " +
               std::to_string(w);
  return {};
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One input of the workload: a table1 circuit or a dc-specs PLA.
struct Input {
  std::string name;
  std::string pla_text;  // dc-specs only
  Reference ref;
};

struct Workload {
  bool from_pla = false;    // dc-specs
  std::string pipeline;     // "" = default pipeline
  std::vector<Input> inputs;
};

Reference circuit_reference(const std::string& name, std::uint64_t seed) {
  mfd::bdd::Manager m;
  const mfd::circuits::Benchmark bench = mfd::circuits::build(name, m);
  Reference ref;
  std::uint64_t state = seed ^ fnv1a(name);
  ref.pi.assign(static_cast<std::size_t>(bench.num_inputs), Words(kRefWords));
  for (Words& w : ref.pi)
    for (std::uint64_t& x : w) x = splitmix64(state);
  ref.on.assign(bench.outputs.size(), Words(kRefWords, 0));
  ref.care.assign(bench.outputs.size(), Words(kRefWords, ~std::uint64_t{0}));
  std::vector<bool> assignment(static_cast<std::size_t>(m.num_vars()), false);
  for (int v = 0; v < 64 * kRefWords; ++v) {
    for (int i = 0; i < bench.num_inputs; ++i)
      assignment[static_cast<std::size_t>(i)] =
          ((ref.pi[static_cast<std::size_t>(i)][v / 64] >> (v % 64)) & 1u) != 0;
    for (std::size_t o = 0; o < bench.outputs.size(); ++o)
      if (m.eval(bench.outputs[o].id(), assignment))
        ref.on[o][static_cast<std::size_t>(v / 64)] |= std::uint64_t{1} << (v % 64);
  }
  return ref;
}

Reference table_reference(const mfd::verify::TableSpec& spec) {
  const std::size_t minterms = spec.table_size();
  const std::size_t words = (minterms + 63) / 64;
  Reference ref;
  ref.pi.assign(static_cast<std::size_t>(spec.num_inputs), Words(words, 0));
  for (std::size_t m = 0; m < minterms; ++m)
    for (int i = 0; i < spec.num_inputs; ++i)
      if ((m >> i) & 1u) ref.pi[static_cast<std::size_t>(i)][m / 64] |= std::uint64_t{1} << (m % 64);
  for (const mfd::verify::TableSpec::Output& out : spec.outputs) {
    Words on(words, 0), care(words, 0);
    for (std::size_t m = 0; m < minterms; ++m) {
      if (out.care[m]) care[m / 64] |= std::uint64_t{1} << (m % 64);
      if (out.care[m] && out.on[m]) on[m / 64] |= std::uint64_t{1} << (m % 64);
    }
    ref.on.push_back(std::move(on));
    ref.care.push_back(std::move(care));
  }
  return ref;
}

/// Everything a run needs before its first timed flow: cold caches, the
/// inputs, and their references.
Workload set_up(const std::string& name, std::uint64_t seed) {
  mfd::cache::configure(mfd::cache::CacheConfig{});
  Workload wl;
  if (name == "table1" || name == "table1-noodc") {
    if (name == "table1-noodc") wl.pipeline = "decompose,simplify,pack";
    for (const std::string& c : mfd::circuits::table_rows())
      wl.inputs.push_back(Input{c, {}, circuit_reference(c, seed)});
  } else if (name == "dc-specs") {
    wl.from_pla = true;
    for (int i = 0; i < kSpecCount; ++i) {
      const mfd::verify::TableSpec spec = mfd::verify::generate_spec(
          kSpecSeedBase + static_cast<std::uint64_t>(i), kSpecShape);
      mfd::bdd::Manager m;
      const std::vector<mfd::Isf> isfs = mfd::verify::to_isfs(spec, m);
      char label[16];
      std::snprintf(label, sizeof label, "spec%03d", i);
      wl.inputs.push_back(Input{
          label,
          mfd::io::write_pla(mfd::io::pla_from_isfs_exact(isfs, spec.num_inputs)),
          table_reference(spec)});
    }
  } else {
    throw mfd::Error("unknown workload '" + name + "'");
  }
  return wl;
}

struct Preset {
  const char* label;
  mfd::SynthesisOptions opts;
};

std::vector<Preset> presets(const Workload& wl) {
  std::vector<Preset> ps = {{"mulopII", mfd::preset_mulopII(5)},
                            {"mulop-dc", mfd::preset_mulop_dc(5)}};
  for (Preset& p : ps) {
    p.opts.decomp.boundset.jobs = 1;
    p.opts.passes = wl.pipeline;
  }
  return ps;
}

/// Flow order: inputs shuffled by the seed, the two presets of an input
/// adjacent (mulopII first), as a user sweeping both flows would run them.
std::vector<std::pair<std::size_t, std::size_t>> flow_order(const Workload& wl,
                                                            std::uint64_t seed) {
  std::vector<std::size_t> idx(wl.inputs.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::uint64_t state = seed;
  for (std::size_t i = idx.size(); i > 1; --i)
    std::swap(idx[i - 1], idx[splitmix64(state) % i]);
  std::vector<std::pair<std::size_t, std::size_t>> order;
  for (std::size_t i : idx) {
    order.emplace_back(i, 0);
    order.emplace_back(i, 1);
  }
  return order;
}

// ---------------------------------------------------------------------------
// Spans (traced pass only)
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into the span list, -1 = root
  int flow = -1;
};

/// In-memory span recorder; spans are written out when the run ends.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

  void set_flow(int flow) { flow_ = flow; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int open(const char* name) {
    spans_.push_back(Span{name, now_s(), 0.0, stack_.empty() ? -1 : stack_.back(), flow_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now_s();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> stack_;
  int flow_ = -1;
};

/// Span name of a pipeline pass (the layer it belongs to).
const char* layer_of(const std::string& pass) {
  if (pass == "decompose") return "decomp";
  if (pass == "simplify") return "net.simplify";
  if (pass == "odc_resubst") return "net.odc";
  if (pass == "pack") return "map.pack";
  return "pass.other";
}

// ---------------------------------------------------------------------------
// Flows
// ---------------------------------------------------------------------------

struct FlowRecord {
  int pass = 0;
  bool traced = false;
  std::string input;
  std::string preset;
  double seconds = 0.0;
  double probe_before_s = 0.0;  // the speed probes run just before and
  double probe_after_s = 0.0;   // just after the flow
  std::string error;  // non-empty: the flow threw
  bool verified = false;
  std::string ref_error = "not checked";  // empty: matches the reference
  int clb_greedy = 0;
  int clb_matching = 0;
  int luts = 0;
  int depth = 0;
  std::uint64_t hash = 0;
  std::vector<std::pair<std::string, int>> luts_out;
  std::string report_json = "{}";
};

void fill_quality(FlowRecord& rec, const mfd::net::LutNetwork& net,
                  const mfd::map::ClbResult& greedy, const mfd::map::ClbResult& matching,
                  const Reference& ref) {
  rec.clb_greedy = greedy.num_clbs;
  rec.clb_matching = matching.num_clbs;
  rec.luts = net.count_luts();
  rec.depth = net.depth();
  rec.hash = fnv1a(net.to_string());
  rec.ref_error = reference_mismatch(net, ref);
}

std::vector<int> identity_vars(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

/// The untraced flow: the public API as a user calls it.
FlowRecord run_flow(const Workload& wl, const Input& in, const Preset& p) {
  FlowRecord rec;
  mfd::net::LutNetwork net;
  mfd::SynthesisResult r;
  const Clock::time_point t0 = Clock::now();
  try {
    mfd::bdd::Manager m;
    const mfd::Synthesizer synth(p.opts);
    if (wl.from_pla) {
      const mfd::io::PlaFile pla = mfd::io::parse_pla(in.pla_text, in.name);
      std::vector<mfd::Isf> spec = mfd::io::pla_to_isfs(pla, m);
      r = synth.run(std::move(spec), identity_vars(pla.num_inputs), in.name);
      const std::string blif = mfd::io::write_blif(r.network, in.name);
      if (blif.empty()) rec.error = "empty BLIF";
    } else {
      const mfd::circuits::Benchmark bench = mfd::circuits::build(in.name, m);
      r = synth.run(bench);
    }
    net = std::move(r.network);
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  rec.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  if (!rec.error.empty()) return rec;
  rec.verified = r.verified;
  for (const mfd::net::PassStats& ps : r.passes) rec.luts_out.emplace_back(ps.name, ps.luts_after);
  rec.report_json = r.report.to_json();
  fill_quality(rec, net, r.clb_greedy, r.clb_matching, in.ref);
  return rec;
}

/// The traced flow: Synthesizer::run's pipeline driven pass by pass under
/// spans, with obs::reset/collect around the flow. It skips the flow-result
/// cache, which only Synthesizer::run consults.
FlowRecord run_flow_traced(const Workload& wl, const Input& in, const Preset& p,
                           Tracer& tr) {
  FlowRecord rec;
  rec.traced = true;
  mfd::net::LutNetwork net;
  mfd::map::ClbResult greedy, matching;
  mfd::obs::Report report;
  const Clock::time_point t0 = Clock::now();
  try {
    Tracer::Scope flow_span(tr, "synth");
    mfd::bdd::Manager m;
    std::vector<mfd::Isf> spec;
    std::vector<int> pi_vars;
    if (wl.from_pla) {
      Tracer::Scope s(tr, "io.parse");
      const mfd::io::PlaFile pla = mfd::io::parse_pla(in.pla_text, in.name);
      spec = mfd::io::pla_to_isfs(pla, m);
      pi_vars = identity_vars(pla.num_inputs);
    } else {
      Tracer::Scope s(tr, "circuits.build");
      const mfd::circuits::Benchmark bench = mfd::circuits::build(in.name, m);
      for (const mfd::bdd::Bdd& f : bench.outputs)
        spec.push_back(mfd::Isf::completely_specified(f));
      pi_vars = identity_vars(bench.num_inputs);
    }
    mfd::obs::reset();
    {
      mfd::obs::ScopedPhase phase("synthesize");
      mfd::ResourceGovernor gov(p.opts.budget);
      mfd::ResourceGovernor::Scope gov_scope(gov);
      const mfd::net::PassPipeline pipeline = mfd::build_pipeline(p.opts.passes, p.opts);
      mfd::DecomposeStats stats;
      mfd::net::PassContext ctx;
      ctx.manager = &m;
      ctx.spec = &spec;
      ctx.pi_vars = &pi_vars;
      ctx.options = &p.opts;
      ctx.governor = &gov;
      ctx.circuit = in.name;
      ctx.stats = &stats;
      ctx.clb_greedy = &greedy;
      ctx.clb_matching = &matching;
      for (const auto& pass : pipeline.passes()) {
        if (pass->optional() && (gov.report().degraded() || gov.deadline_expired())) continue;
        {
          Tracer::Scope s(tr, layer_of(pass->name()));
          mfd::obs::ScopedPhase pass_phase(std::string("pass.") + pass->name());
          pass->run(net, ctx);
        }
        rec.luts_out.emplace_back(pass->name(), net.count_luts());
      }
      mfd::ResourceGovernor::SuspendScope suspend(gov);
      Tracer::Scope s(tr, "verify");
      mfd::obs::ScopedPhase verify_phase("verify");
      std::string why;
      rec.verified = mfd::net::check_exact(net, spec, pi_vars, &why);
      if (!rec.verified) rec.error = "check_exact: " + why;
    }
    m.publish_stats();
    mfd::cache::publish_stats();
    report = mfd::obs::collect();
    if (wl.from_pla) {
      Tracer::Scope s(tr, "io.write");
      if (mfd::io::write_blif(net, in.name).empty()) rec.error = "empty BLIF";
    }
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  rec.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  if (!rec.error.empty()) return rec;
  rec.report_json = report.to_json();
  fill_quality(rec, net, greedy, matching, in.ref);
  return rec;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void write_flow(mfd::obs::JsonWriter& w, const FlowRecord& f) {
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016llx", static_cast<unsigned long long>(f.hash));
  w.begin_object();
  w.key("pass").value(f.pass);
  w.key("traced").value(f.traced);
  w.key("input").value(f.input);
  w.key("preset").value(f.preset);
  w.key("seconds").value(f.seconds);
  w.key("probe_before_s").value(f.probe_before_s);
  w.key("probe_after_s").value(f.probe_after_s);
  w.key("error").value(f.error);
  w.key("verified").value(f.verified);
  w.key("ref_error").value(f.ref_error);
  w.key("clb_greedy").value(f.clb_greedy);
  w.key("clb_matching").value(f.clb_matching);
  w.key("luts").value(f.luts);
  w.key("depth").value(f.depth);
  w.key("hash").value(hash);
  w.key("luts_out").begin_object();
  for (const auto& [pass, luts] : f.luts_out) w.key(pass).value(luts);
  w.end_object();
  w.key("report").raw(f.report_json);
  w.end_object();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int passes = 1;
  bool trace = false;
  std::string out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--passes") a.passes = std::max(1, std::stoi(value));
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--out") a.out = value;
    else throw mfd::Error("unknown flag " + flag);
  }
  if (a.workload.empty() || a.out.empty())
    throw mfd::Error("usage: perfbench_driver --workload W --seed N --passes P "
                     "--trace 0|1 --out FILE");
  return a;
}

int run(const Args& args) {
  probe_s();  // allocates the probe's buffer outside any timing
  std::vector<double> setup_s, setup_probe_s;
  Workload wl;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup_probe_s.push_back(probe_s());
    const double t0 = now_s();
    wl = set_up(args.workload, args.seed);
    setup_s.push_back(now_s() - t0);
  }
  const std::vector<Preset> ps = presets(wl);
  const auto order = flow_order(wl, args.seed);

  std::vector<FlowRecord> flows;
  Tracer tracer;
  const int total_passes = args.passes + (args.trace ? 1 : 0);
  for (int pass = 0; pass < total_passes; ++pass) {
    const bool traced = pass == args.passes;
    mfd::cache::clear();
    double probe = probe_s();
    for (const auto& [input, preset] : order) {
      const Input& in = wl.inputs[input];
      tracer.set_flow(static_cast<int>(flows.size()));
      FlowRecord rec = traced ? run_flow_traced(wl, in, ps[preset], tracer)
                              : run_flow(wl, in, ps[preset]);
      rec.probe_before_s = probe;
      probe = probe_s();
      rec.probe_after_s = probe;
      rec.pass = pass;
      rec.input = in.name;
      rec.preset = ps[preset].label;
      if (!rec.error.empty())
        std::fprintf(stderr, "flow %s/%s failed: %s\n", in.name.c_str(),
                     rec.preset.c_str(), rec.error.c_str());
      flows.push_back(std::move(rec));
    }
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  mfd::obs::JsonWriter w;
  w.begin_object();
  w.key("workload").value(args.workload);
  w.key("seed").value(args.seed);
  w.key("passes").value(args.passes);
  w.key("trace").value(args.trace);
  w.key("build_type").value(PERFBENCH_BUILD_TYPE);
  w.key("hardware_concurrency").value(static_cast<int>(std::thread::hardware_concurrency()));
  w.key("boundset_jobs").value(1);
  w.key("pipeline").value(wl.pipeline.empty() ? mfd::default_pipeline_spec() : wl.pipeline);
  w.key("setup_s").begin_array();
  for (double s : setup_s) w.value(s);
  w.end_array();
  w.key("setup_probe_s").begin_array();
  for (double s : setup_probe_s) w.value(s);
  w.end_array();
  w.key("peak_rss_kb").value(static_cast<std::int64_t>(usage.ru_maxrss));
  w.key("flows").begin_array();
  for (const FlowRecord& f : flows) write_flow(w, f);
  w.end_array();
  w.key("spans").begin_array();
  for (const Span& s : tracer.spans()) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("start").value(s.start);
    w.key("end").value(s.end);
    w.key("parent").value(s.parent);
    w.key("flow").value(s.flow);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::ofstream out(args.out);
  out << w.str() << '\n';
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
