// Graphviz dot export of the LUT-network IR, for eyeballing pass-by-pass
// network states (--dump-net). BLIF text comes from io::write_blif.
#include <sstream>
#include <string>

#include "net/lutnet.h"

namespace mfd::net {
namespace {

std::string signal_name(const LutNetwork& net, int s) {
  if (s == kConst0) return "const0";
  if (s == kConst1) return "const1";
  if (net.is_primary_input(s)) return "pi" + std::to_string(s);
  return "n" + std::to_string(net.lut_index(s));
}

}  // namespace

std::string LutNetwork::to_dot(const std::string& name) const {
  const std::vector<bool> live = live_luts();
  std::ostringstream os;
  os << "digraph \"" << name << "\" {\n  rankdir=LR;\n";
  for (int i = 0; i < num_pi_; ++i)
    os << "  pi" << i << " [shape=box];\n";
  bool uses_const0 = false, uses_const1 = false;
  for (int i = 0; i < num_luts(); ++i) {
    if (!live[static_cast<std::size_t>(i)]) continue;
    const Lut& lut = luts_[static_cast<std::size_t>(i)];
    os << "  n" << i << " [shape=ellipse, label=\"n" << i << "\\nk="
       << lut.inputs.size() << "\"];\n";
    for (int in : lut.inputs) {
      uses_const0 |= (in == kConst0);
      uses_const1 |= (in == kConst1);
      os << "  " << signal_name(*this, in) << " -> n" << i << ";\n";
    }
  }
  for (int i = 0; i < num_outputs(); ++i) {
    const int s = outputs_[static_cast<std::size_t>(i)];
    uses_const0 |= (s == kConst0);
    uses_const1 |= (s == kConst1);
    os << "  po" << i << " [shape=doublecircle];\n  "
       << signal_name(*this, s) << " -> po" << i << ";\n";
  }
  if (uses_const0) os << "  const0 [shape=diamond];\n";
  if (uses_const1) os << "  const1 [shape=diamond];\n";
  os << "}\n";
  return os.str();
}

}  // namespace mfd::net
