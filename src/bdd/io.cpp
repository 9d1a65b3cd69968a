// Debug output.
#include <sstream>
#include <unordered_map>

#include "bdd/bdd.h"

namespace mfd::bdd {

std::string Manager::to_dot(const std::vector<Edge>& roots,
                            const std::vector<std::string>& names) const {
  // Complemented edges carry a dot-shaped arrowhead (the usual convention);
  // else-edges are dashed. The single terminal is the ONE box.
  std::ostringstream os;
  os << "digraph bdd {\n  rankdir=TB;\n";
  os << "  n0 [label=\"1\", shape=box];\n";
  const auto edge_attrs = [](Edge e, bool dashed) {
    std::string attrs;
    if (dashed) attrs = "style=dashed";
    if (e.is_complemented()) {
      if (!attrs.empty()) attrs += ", ";
      attrs += "arrowhead=odot";
    }
    return attrs.empty() ? std::string() : " [" + attrs + "]";
  };
  std::unordered_map<NodeIndex, bool> seen;
  std::vector<NodeIndex> stack;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    const std::string name = i < names.size() ? names[i] : "f" + std::to_string(i);
    os << "  r" << i << " [label=\"" << name << "\", shape=plaintext];\n";
    os << "  r" << i << " -> n" << roots[i].index() << edge_attrs(roots[i], false)
       << ";\n";
    stack.push_back(roots[i].index());
  }
  while (!stack.empty()) {
    const NodeIndex n = stack.back();
    stack.pop_back();
    if (n == 0 || seen[n]) continue;
    seen[n] = true;
    const Node& node = nodes_[n];
    os << "  n" << n << " [label=\"x" << node.var << "\"];\n";
    os << "  n" << n << " -> n" << node.lo.index() << edge_attrs(node.lo, true) << ";\n";
    os << "  n" << n << " -> n" << node.hi.index() << edge_attrs(node.hi, false) << ";\n";
    stack.push_back(node.lo.index());
    stack.push_back(node.hi.index());
  }
  os << "}\n";
  return os.str();
}

}  // namespace mfd::bdd
