#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
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

// Per-thread phase tree. Owned jointly by the thread (for lock-free-ish
// access patterns in the scope hot path — the registry mutex is only taken
// to serialize against snapshot/reset) and by the global registry (so trees
// of exited threads still appear in reports).
struct ThreadPhases {
  PhaseNode root{"total", 0, 0.0, {}};
  std::vector<OpenFrame> open;

  PhaseNode* current() { return open.empty() ? &root : open.back().node; }
};

std::mutex& mutex() {
  static std::mutex mu;
  return mu;
}

std::vector<std::shared_ptr<ThreadPhases>>& threads() {
  static std::vector<std::shared_ptr<ThreadPhases>> list;
  return list;
}

ThreadPhases& local() {
  thread_local std::shared_ptr<ThreadPhases> mine = [] {
    auto p = std::make_shared<ThreadPhases>();
    std::lock_guard<std::mutex> lock(mutex());
    threads().push_back(p);
    return p;
  }();
  return *mine;
}

void merge_into(PhaseNode& dst, const PhaseNode& src) {
  dst.calls += src.calls;
  dst.seconds += src.seconds;
  for (const PhaseNode& child : src.children) {
    auto it = std::find_if(dst.children.begin(), dst.children.end(),
                           [&](const PhaseNode& n) { return n.name == child.name; });
    if (it == dst.children.end()) {
      dst.children.push_back(PhaseNode{child.name, 0, 0.0, {}});
      it = std::prev(dst.children.end());
    }
    merge_into(*it, child);
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
  ThreadPhases& t = local();  // may self-register: resolve before locking
  std::lock_guard<std::mutex> lock(mutex());
  PhaseNode* cur = t.current();
  if (cur->name == name && !t.open.empty()) {
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
  t.open.push_back(OpenFrame{node, Clock::now()});
  active_ = true;
}

ScopedPhase::~ScopedPhase() {
  if (!active_) return;
  ThreadPhases& t = local();
  std::lock_guard<std::mutex> lock(mutex());
  // The stack cannot be empty here: frames are only popped by the matching
  // destructor, and reset() preserves open frames.
  const OpenFrame frame = t.open.back();
  t.open.pop_back();
  frame.node->seconds +=
      std::chrono::duration<double>(Clock::now() - frame.start).count();
}

namespace detail {

PhaseNode snapshot_phases() {
  PhaseNode merged{"total", 0, 0.0, {}};
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex());
  for (const auto& t : threads()) {
    // Copy, then credit in-flight phases with their elapsed-so-far time so
    // a snapshot taken inside an open phase (the normal case: Synthesizer
    // collects while its own root phase is open) is self-consistent. The
    // open frames form a chain from the root, so one walk credits them all.
    PhaseNode copy = t->root;
    PhaseNode* node = &copy;
    for (const OpenFrame& frame : t->open) {
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
    merge_into(merged, copy);
  }
  merged.calls = std::max<std::uint64_t>(merged.calls, 1);
  return merged;
}

void reset_phases() {
  std::lock_guard<std::mutex> lock(mutex());
  const Clock::time_point now = Clock::now();
  for (const auto& t : threads()) {
    // Preserve the chain of currently open phases as fresh nodes (their
    // scopes will keep accumulating into the new epoch); drop everything
    // else and restart the in-flight clocks.
    std::vector<std::string> open_names;
    open_names.reserve(t->open.size());
    for (const OpenFrame& f : t->open) open_names.push_back(f.node->name);
    t->root = PhaseNode{"total", 0, 0.0, {}};
    PhaseNode* cur = &t->root;
    for (std::size_t i = 0; i < t->open.size(); ++i) {
      cur->children.push_back(PhaseNode{open_names[i], 1, 0.0, {}});
      cur = &cur->children.back();
      t->open[i].node = cur;
      t->open[i].start = now;
    }
  }
}

}  // namespace detail

}  // namespace mfd::obs
