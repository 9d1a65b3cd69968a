// mfd_fuzz: the differential fuzz driver (docs/FUZZING.md).
//
// Modes:
//   mfd_fuzz --seeds N [--seed-base B] [--out DIR] ...   fuzzing sweep
//   mfd_fuzz --repro FILE                                replay a reproducer
//
// The sweep generates one random multi-output ISF spec per seed
// (verify::generate_spec), runs the differential oracle over its option
// points (verify::run_oracle), and on failure delta-debugs the spec down to
// a minimal reproducer (verify::shrink_spec) written under --out. Exit code
// is 0 iff every seed passed (and, in --repro mode, iff the failure no
// longer reproduces).
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "core/errors.h"
#include "verify/oracle.h"
#include "verify/repro.h"
#include "verify/shrink.h"
#include "verify/specgen.h"

namespace {

struct Args {
  int seeds = 0;
  unsigned long long seed_base = 1;
  int max_inputs = 7;
  int max_outputs = 4;
  int min_inputs = 1;
  std::string out_dir = ".";
  std::string repro_file;
  bool shrink = true;
  bool verbose = false;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --seeds N [options]\n"
               "       %s --repro FILE\n"
               "options:\n"
               "  --seeds N        number of random specs to fuzz\n"
               "  --seed-base B    first seed (default 1); seeds are B..B+N-1\n"
               "  --min-inputs K   minimum spec inputs (default 1)\n"
               "  --max-inputs K   maximum spec inputs (default 7, at most 16,\n"
               "                   not below --min-inputs)\n"
               "  --max-outputs K  maximum spec outputs (default 4, at least 1)\n"
               "  --out DIR        where shrunk reproducers are written (default .)\n"
               "  --no-shrink      write the unshrunk failing spec instead\n"
               "  --repro FILE     replay one reproducer file and exit\n"
               "  -v               per-seed progress output\n",
               argv0, argv0);
}

/// Parses a whole decimal argument in [0, max]: no sign (strtoull would
/// wrap a '-'), no trailing characters, no overflow.
bool parse_number(const char* s, unsigned long long max, unsigned long long* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (s[0] < '0' || s[0] > '9' || *end != '\0' || errno == ERANGE || v > max) return false;
  *out = v;
  return true;
}

bool parse_int(const char* s, int* out) {
  unsigned long long v = 0;
  if (!parse_number(s, INT_MAX, &v)) return false;
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mfd_fuzz: %s expects a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--seeds") {
      if (!parse_int(value(), &args.seeds)) { usage(argv[0]); return 2; }
    } else if (a == "--seed-base") {
      if (!parse_number(value(), ULLONG_MAX, &args.seed_base)) { usage(argv[0]); return 2; }
    } else if (a == "--min-inputs") {
      if (!parse_int(value(), &args.min_inputs)) { usage(argv[0]); return 2; }
    } else if (a == "--max-inputs") {
      if (!parse_int(value(), &args.max_inputs)) { usage(argv[0]); return 2; }
    } else if (a == "--max-outputs") {
      if (!parse_int(value(), &args.max_outputs)) { usage(argv[0]); return 2; }
    } else if (a == "--out") {
      args.out_dir = value();
    } else if (a == "--repro") {
      args.repro_file = value();
    } else if (a == "--no-shrink") {
      args.shrink = false;
    } else if (a == "-v" || a == "--verbose") {
      args.verbose = true;
    } else if (a == "-h" || a == "--help") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "mfd_fuzz: unknown option %s\n", a.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  using namespace mfd;

  if (!args.repro_file.empty()) {
    try {
      const verify::OracleResult r = verify::replay_repro_file(args.repro_file);
      if (r.ok) {
        std::printf("repro %s: PASS (%d points, %d checks — failure does not reproduce)\n",
                    args.repro_file.c_str(), r.points_run, r.checks_run);
        return 0;
      }
      std::printf("repro %s: FAIL at %s: %s\n", args.repro_file.c_str(),
                  r.failing_point.c_str(), r.failure.c_str());
      return 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mfd_fuzz: %s\n", e.what());
      return 2;
    }
  }

  // The seed range B..B+N-1 must not wrap past 2^64 - 1.
  if (args.seeds <= 0 ||
      args.seed_base > ULLONG_MAX - static_cast<unsigned long long>(args.seeds - 1)) {
    usage(argv[0]);
    return 2;
  }

  verify::SpecGenOptions gen;
  gen.min_inputs = args.min_inputs;
  gen.max_inputs = args.max_inputs;
  gen.max_outputs = args.max_outputs;

  int failures = 0;
  for (int i = 0; i < args.seeds; ++i) {
    const std::uint64_t seed = args.seed_base + static_cast<std::uint64_t>(i);
    verify::TableSpec spec;
    try {
      spec = verify::generate_spec(seed, gen);
    } catch (const Error& e) {  // a bad shape, rejected before the first seed's draws
      std::fprintf(stderr, "mfd_fuzz: %s\n", e.what());
      usage(argv[0]);
      return 2;
    }
    const verify::OracleResult r = verify::run_oracle(spec, seed);
    if (args.verbose)
      std::printf("seed %llu: %s — %s\n", static_cast<unsigned long long>(seed),
                  verify::describe(spec).c_str(), r.ok ? "ok" : "FAIL");
    if (r.ok) continue;

    ++failures;
    std::printf("seed %llu FAILED at %s: %s\n", static_cast<unsigned long long>(seed),
                r.failing_point.c_str(), r.failure.c_str());

    verify::TableSpec minimal = spec;
    if (args.shrink) {
      const verify::ShrinkResult shrunk = verify::shrink_spec(
          spec, [&](const verify::TableSpec& candidate) {
            return !verify::run_oracle(candidate, seed).ok;
          });
      minimal = shrunk.spec;
      std::printf("  shrunk %s -> %s in %d checks\n", verify::describe(spec).c_str(),
                  verify::describe(minimal).c_str(), shrunk.checks_run);
    }

    verify::Repro repro;
    repro.spec = minimal;
    repro.oracle_seed = seed;
    const verify::OracleResult final = verify::run_oracle(minimal, seed);
    repro.note = "seed " + std::to_string(seed) + ": " +
                 (final.ok ? r.failure : final.failure);
    const std::string path = args.out_dir + "/seed" + std::to_string(seed) + ".repro";
    std::ofstream out(path);
    out << verify::write_repro(repro);
    out.close();
    std::printf("  reproducer written to %s\n", path.c_str());
  }

  std::printf("mfd_fuzz: %d/%d seeds passed\n", args.seeds - failures, args.seeds);
  return failures == 0 ? 0 : 1;
}
