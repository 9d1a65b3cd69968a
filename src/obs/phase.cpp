#include <algorithm>
#include <chrono>
#include <vector>

#include "obs/internal.h"
#include "obs/obs.h"

namespace mfd::obs {
namespace {

using Clock = std::chrono::steady_clock;

struct OpenFrame {
  PhaseNode* node;
  Clock::time_point start;
};

// The thread's phase tree and the chain of phases open in it, outermost
// first.
struct Phases {
  PhaseNode root{"total", 0, 0.0, {}};
  std::vector<OpenFrame> open;

  PhaseNode* current() { return open.empty() ? &root : open.back().node; }
};

Phases& phases() {
  thread_local Phases p;
  return p;
}

/// Adds each child of `from` (calls, seconds and, recursively, children)
/// to the child of `into` with its name, appended when there is none.
void merge_children(PhaseNode& into, const PhaseNode& from) {
  for (const PhaseNode& c : from.children) {
    PhaseNode* same = nullptr;
    for (PhaseNode& mine : into.children)
      if (mine.name == c.name) {
        same = &mine;
        break;
      }
    if (same == nullptr) same = &into.children.emplace_back(PhaseNode{c.name, 0, 0.0, {}});
    same->calls += c.calls;
    same->seconds += c.seconds;
    merge_children(*same, c);
  }
}

}  // namespace

const PhaseNode* PhaseNode::child(std::string_view child_name) const {
  for (const PhaseNode& c : children)
    if (c.name == child_name) return &c;
  return nullptr;
}

const PhaseNode* PhaseNode::find(std::string_view node_name) const {
  if (name == node_name) return this;
  for (const PhaseNode& c : children)
    if (const PhaseNode* hit = c.find(node_name)) return hit;
  return nullptr;
}

double PhaseNode::child_seconds() const {
  double total = 0.0;
  for (const PhaseNode& c : children) total += c.seconds;
  return total;
}

ScopedPhase::ScopedPhase(std::string_view name) {
  if (!enabled()) return;
  Phases& p = phases();
  PhaseNode* cur = p.current();
  if (cur->name == name && !p.open.empty()) {
    // Self-nesting (e.g. the decomposition driver's recursive `recurse`
    // phase): merge into the open instance. Only the outermost scope
    // measures time, so nested wall-clock is not double counted.
    ++cur->calls;
    return;  // active_ stays false
  }
  PhaseNode* node = nullptr;
  for (PhaseNode& c : cur->children)
    if (c.name == name) {
      node = &c;
      break;
    }
  if (node == nullptr) {
    cur->children.push_back(PhaseNode{std::string(name), 0, 0.0, {}});
    node = &cur->children.back();
  }
  ++node->calls;
  p.open.push_back(OpenFrame{node, Clock::now()});
  active_ = true;
}

ScopedPhase::~ScopedPhase() {
  if (!active_) return;
  // The stack cannot be empty here: frames are only popped by the matching
  // destructor, and reset() preserves open frames.
  std::vector<OpenFrame>& open = phases().open;
  const OpenFrame frame = open.back();
  open.pop_back();
  frame.node->seconds +=
      std::chrono::duration<double>(Clock::now() - frame.start).count();
}

namespace detail {

PhaseNode snapshot_phases() {
  const Clock::time_point now = Clock::now();
  // Copy, then credit in-flight phases with their elapsed-so-far time so a
  // snapshot taken inside an open phase (the normal case: Synthesizer
  // collects while its own root phase is open) is self-consistent. The open
  // frames form a chain from the root, so one walk credits them all.
  const Phases& p = phases();
  PhaseNode copy = p.root;
  PhaseNode* node = &copy;
  for (const OpenFrame& frame : p.open) {
    PhaseNode* next = nullptr;
    for (PhaseNode& c : node->children)
      if (c.name == frame.node->name) {
        next = &c;
        break;
      }
    if (next == nullptr) break;
    next->seconds += std::chrono::duration<double>(now - frame.start).count();
    node = next;
  }
  copy.calls = std::max<std::uint64_t>(copy.calls, 1);
  return copy;
}

void merge_phases(const PhaseNode& root) {
  // Only the innermost open phase gains children: the open frames point at
  // it and its ancestors, never into its child list.
  merge_children(*phases().current(), root);
}

void reset_phases() {
  // Preserve the chain of currently open phases as fresh nodes (their scopes
  // will keep accumulating into the new epoch); drop everything else and
  // restart the in-flight clocks.
  const Clock::time_point now = Clock::now();
  Phases& p = phases();
  std::vector<std::string> open_names;
  open_names.reserve(p.open.size());
  for (const OpenFrame& f : p.open) open_names.push_back(f.node->name);
  p.root = PhaseNode{"total", 0, 0.0, {}};
  PhaseNode* cur = &p.root;
  for (std::size_t i = 0; i < p.open.size(); ++i) {
    cur->children.push_back(PhaseNode{open_names[i], 1, 0.0, {}});
    cur = &cur->children.back();
    p.open[i].node = cur;
    p.open[i].start = now;
  }
}

}  // namespace detail

}  // namespace mfd::obs
