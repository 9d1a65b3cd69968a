#include "io/blif.h"

#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "circuits/circuits.h"
#include "core/errors.h"

namespace mfd::io {
namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> tokens;
  std::string t;
  while (is >> t) tokens.push_back(t);
  return tokens;
}

/// One logical line: its tokens plus the 1-based physical line where it
/// starts ('\' continuations glue onto the line that opened them), so parse
/// errors point at real file positions.
struct LogicalLine {
  std::vector<std::string> tokens;
  int line_no = 0;
};

/// Reads logical lines, gluing '\' continuations and stripping comments.
std::vector<LogicalLine> logical_lines(const std::string& text) {
  std::vector<LogicalLine> lines;
  std::istringstream is(text);
  std::string line, joined;
  int line_no = 0;
  int start_line = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::size_t comment = line.find('#');
    if (comment != std::string::npos) line.erase(comment);
    const bool cont = !line.empty() && line.back() == '\\';
    if (cont) line.pop_back();
    if (joined.empty()) start_line = line_no;
    joined += line + " ";
    if (cont) continue;
    std::vector<std::string> tokens = tokenize(joined);
    joined.clear();
    if (!tokens.empty()) lines.push_back(LogicalLine{std::move(tokens), start_line});
  }
  return lines;
}

}  // namespace

BlifModel parse_blif(const std::string& text, bdd::Manager& m,
                     const std::string& filename) {
  BlifModel model;
  const auto lines = logical_lines(text);

  std::map<std::string, bdd::Bdd> signal;
  std::size_t li = 0;

  auto read_names_block = [&](const LogicalLine& header, std::size_t& pos) {
    const std::vector<std::string> ios(header.tokens.begin() + 1, header.tokens.end());
    if (ios.empty()) throw ParseError(filename, header.line_no, "blif: empty .names");
    const std::string target = ios.back();
    const int k = static_cast<int>(ios.size()) - 1;
    std::vector<bdd::Bdd> fanin;
    for (int i = 0; i < k; ++i) {
      const auto it = signal.find(ios[static_cast<std::size_t>(i)]);
      if (it == signal.end())
        throw ParseError(filename, header.line_no,
                         "blif: use of undefined signal " + ios[static_cast<std::size_t>(i)] +
                             " (non-topological order is unsupported)");
      fanin.push_back(it->second);
    }
    bdd::Bdd on = m.bdd_false();
    bool complemented = false;
    while (pos < lines.size() && lines[pos].tokens.front()[0] != '.') {
      const LogicalLine& cube_line = lines[pos++];
      std::string in, out;
      if (k == 0) {
        if (cube_line.tokens.size() != 1)
          throw ParseError(filename, cube_line.line_no, "blif: bad constant cover");
        out = cube_line.tokens[0];
      } else {
        if (cube_line.tokens.size() != 2)
          throw ParseError(filename, cube_line.line_no, "blif: bad cover line");
        in = cube_line.tokens[0];
        out = cube_line.tokens[1];
        if (static_cast<int>(in.size()) != k)
          throw ParseError(filename, cube_line.line_no, "blif: cover width mismatch");
      }
      if (out != "1" && out != "0")
        throw ParseError(filename, cube_line.line_no, "blif: bad output plane");
      complemented = (out == "0");
      bdd::Bdd cube = m.bdd_true();
      for (int i = 0; i < k; ++i) {
        const char ch = in[static_cast<std::size_t>(i)];
        if (ch == '-') continue;
        if (ch != '0' && ch != '1')
          throw ParseError(filename, cube_line.line_no, "blif: bad cover character");
        cube &= (ch == '1') ? fanin[static_cast<std::size_t>(i)]
                            : !fanin[static_cast<std::size_t>(i)];
      }
      on |= cube;
    }
    signal[target] = complemented ? !on : on;
  };

  bool in_model = false;
  while (li < lines.size()) {
    const LogicalLine header = lines[li++];
    const std::string& head = header.tokens.front();
    if (head == ".model") {
      if (in_model)
        throw ParseError(filename, header.line_no, "blif: multiple models unsupported");
      in_model = true;
      if (header.tokens.size() > 1) model.name = header.tokens[1];
    } else if (head == ".inputs") {
      for (std::size_t i = 1; i < header.tokens.size(); ++i) {
        circuits::ensure_vars(m, static_cast<int>(model.inputs.size()) + 1);
        signal[header.tokens[i]] = m.var(static_cast<int>(model.inputs.size()));
        model.inputs.push_back(header.tokens[i]);
      }
    } else if (head == ".outputs") {
      // Append: the output list may span several .outputs lines, same as
      // .inputs (assign would silently drop all but the last block).
      model.outputs.insert(model.outputs.end(), header.tokens.begin() + 1,
                           header.tokens.end());
    } else if (head == ".names") {
      read_names_block(header, li);
    } else if (head == ".end") {
      break;
    } else if (head[0] == '.') {
      throw ParseError(filename, header.line_no, "blif: unsupported directive " + head);
    } else {
      throw ParseError(filename, header.line_no, "blif: stray line starting with " + head);
    }
  }

  for (const std::string& out : model.outputs) {
    const auto it = signal.find(out);
    // Line 0: a whole-model error with no single offending line.
    if (it == signal.end())
      throw ParseError(filename, 0, "blif: undriven output " + out);
    model.functions.push_back(it->second);
  }
  return model;
}

namespace {

/// Makes `candidate` safe to emit in a BLIF token position: non-empty, no
/// whitespace (token separator), no '#' (comment start), no '\\' (line
/// continuation), no leading '.' (directive). Unusable characters become '_';
/// an empty or directive-like name falls back to `fallback`.
std::string sanitize_blif_name(std::string candidate, const std::string& fallback) {
  for (char& ch : candidate)
    if (ch == '#' || ch == '\\' || std::isspace(static_cast<unsigned char>(ch)))
      ch = '_';
  if (candidate.empty() || candidate[0] == '.') return fallback;
  return candidate;
}

}  // namespace

std::string write_blif(const net::LutNetwork& net, const std::string& model_name,
                       const std::vector<std::string>& input_names,
                       const std::vector<std::string>& output_names) {
  std::ostringstream os;

  // Every emitted name goes through this table: requested names are
  // sanitized, then deduplicated against everything already assigned (user
  // names colliding with each other or with generated pi<N>/po<N>/n<N>/
  // const0/const1 names would silently merge distinct signals on re-read).
  std::set<std::string> used;
  auto claim = [&](const std::string& requested, const std::string& fallback) {
    std::string name = sanitize_blif_name(requested, fallback);
    if (used.insert(name).second) return name;
    for (int suffix = 2;; ++suffix) {
      const std::string retry = name + "_" + std::to_string(suffix);
      if (used.insert(retry).second) return retry;
    }
  };

  std::map<int, std::string> pi_name;
  for (int i = 0; i < net.num_primary_inputs(); ++i) {
    const std::string fallback = "pi" + std::to_string(i);
    pi_name[i] = claim(
        i < static_cast<int>(input_names.size()) ? input_names[static_cast<std::size_t>(i)]
                                                 : fallback,
        fallback);
  }
  std::vector<std::string> po_name(static_cast<std::size_t>(net.num_outputs()));
  for (int o = 0; o < net.num_outputs(); ++o) {
    const std::string fallback = "po" + std::to_string(o);
    po_name[static_cast<std::size_t>(o)] = claim(
        o < static_cast<int>(output_names.size()) ? output_names[static_cast<std::size_t>(o)]
                                                  : fallback,
        fallback);
  }
  const std::string const0_name = claim("const0", "const0");
  const std::string const1_name = claim("const1", "const1");
  std::map<int, std::string> lut_name;
  for (int i = 0; i < net.num_luts(); ++i) {
    const int s = net.lut_signal(i);
    std::string fallback = "n";
    fallback += std::to_string(s);
    lut_name[s] = claim(fallback, fallback);
  }

  auto signal_name = [&](int s) -> std::string {
    if (s == net::kConst0) return const0_name;
    if (s == net::kConst1) return const1_name;
    if (net.is_primary_input(s)) return pi_name.at(s);
    return lut_name.at(s);
  };

  os << ".model " << model_name << "\n.inputs";
  for (int i = 0; i < net.num_primary_inputs(); ++i) os << ' ' << signal_name(i);
  os << "\n.outputs";
  for (int o = 0; o < net.num_outputs(); ++o) os << ' ' << po_name[static_cast<std::size_t>(o)];
  os << "\n";

  bool used_const0 = false, used_const1 = false;
  for (int i = 0; i < net.num_luts(); ++i)
    for (int in : net.lut(i).inputs) {
      used_const0 |= in == net::kConst0;
      used_const1 |= in == net::kConst1;
    }
  for (int s : net.outputs()) {
    used_const0 |= s == net::kConst0;
    used_const1 |= s == net::kConst1;
  }
  if (used_const0) os << ".names " << const0_name << "\n";
  if (used_const1) os << ".names " << const1_name << "\n1\n";

  for (int i = 0; i < net.num_luts(); ++i) {
    const net::Lut& lut = net.lut(i);
    os << ".names";
    for (int in : lut.inputs) os << ' ' << signal_name(in);
    os << ' ' << signal_name(net.lut_signal(i)) << "\n";
    for (std::uint64_t idx = 0; idx < lut.table.num_minterms(); ++idx) {
      if (!lut.table[idx]) continue;
      std::string cube(lut.inputs.size(), '0');
      for (std::size_t j = 0; j < lut.inputs.size(); ++j)
        if ((idx >> j) & 1) cube[j] = '1';
      os << cube << (cube.empty() ? "" : " ") << "1\n";
    }
  }

  // Output drivers: buffers from internal names to output names.
  for (int o = 0; o < net.num_outputs(); ++o) {
    os << ".names " << signal_name(net.outputs()[static_cast<std::size_t>(o)]) << ' '
       << po_name[static_cast<std::size_t>(o)] << "\n1 1\n";
  }
  os << ".end\n";
  return os.str();
}

}  // namespace mfd::io
