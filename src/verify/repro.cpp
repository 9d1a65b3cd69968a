#include "verify/repro.h"

#include <fstream>
#include <sstream>

#include "core/errors.h"
#include "io/pla.h"

namespace mfd::verify {
namespace {

constexpr int kFormatVersion = 1;

}  // namespace

std::string write_repro(const Repro& repro) {
  std::ostringstream os;
  os << "# mfd_fuzz reproducer (docs/FUZZING.md). Replay with:\n";
  os << "#   mfd_fuzz --repro <this-file>\n";
  os << ".mfdrepro " << kFormatVersion << "\n";
  os << ".seed " << repro.oracle_seed << "\n";
  if (!repro.note.empty()) {
    std::string note = repro.note;
    for (char& ch : note)
      if (ch == '\n' || ch == '\r') ch = ' ';
    os << ".note " << note << "\n";
  }
  bdd::Manager m;
  const std::vector<Isf> fns = to_isfs(repro.spec, m);
  os << io::write_pla(io::pla_from_isfs_exact(fns, repro.spec.num_inputs));
  return os.str();
}

Repro parse_repro(const std::string& text, const std::string& filename) {
  Repro repro;
  bool saw_version = false, saw_seed = false;
  std::string pla_text;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string head;
    ls >> head;
    if (head == ".mfdrepro") {
      int version = 0;
      if (!(ls >> version) || version != kFormatVersion)
        throw ParseError(filename, line_no,
                         "repro: unsupported format version (expected .mfdrepro " +
                             std::to_string(kFormatVersion) + ")");
      saw_version = true;
    } else if (head == ".seed") {
      unsigned long long seed = 0;
      if (!(ls >> seed))
        throw ParseError(filename, line_no, "repro: malformed .seed");
      repro.oracle_seed = seed;
      saw_seed = true;
    } else if (head == ".note") {
      std::getline(ls, repro.note);
      while (!repro.note.empty() && repro.note.front() == ' ')
        repro.note.erase(repro.note.begin());
    } else {
      pla_text += line;
    }
    // Consumed directives still contribute an empty line so that ParseError
    // line numbers from the PLA body match the reproducer file.
    pla_text += '\n';
  }
  if (!saw_version)
    throw ParseError(filename, 0, "repro: missing .mfdrepro directive");
  if (!saw_seed) throw ParseError(filename, 0, "repro: missing .seed directive");

  const io::PlaFile pla = io::parse_pla(pla_text, filename);
  bdd::Manager m;
  const std::vector<Isf> fns = io::pla_to_isfs(pla, m);
  repro.spec = from_isfs(fns, pla.num_inputs);
  return repro;
}

OracleResult replay_repro(const Repro& repro) {
  return run_oracle(repro.spec, repro.oracle_seed);
}

OracleResult replay_repro_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("repro: cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return replay_repro(parse_repro(buffer.str(), path));
}

}  // namespace mfd::verify
