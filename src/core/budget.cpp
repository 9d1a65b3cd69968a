#include "core/budget.h"

#include "obs/obs.h"

namespace mfd {

namespace {
ResourceGovernor* g_current = nullptr;
}  // namespace

const char* degrade_level_name(int level) {
  switch (level) {
    case kDegradeFull: return "full";
    case kDegradeGreedyColoring: return "greedy_coloring";
    case kDegradeNoDcSteps: return "no_dc_steps";
    case kDegradeStructural: return "structural";
  }
  return "?";
}

ResourceGovernor::ResourceGovernor(const ResourceBudget& budget)
    : budget_(budget),
      start_(Clock::now()),
      op_ceiling_(budget.op_ceiling),
      node_ceiling_(budget.node_ceiling) {
  if (budget.time_ms > 0.0)
    deadline_ = start_ + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(budget.time_ms));
}

double ResourceGovernor::elapsed_ms() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - start_).count();
}

bool ResourceGovernor::deadline_expired() const noexcept {
  if (suspend_ != 0) return false;
  if (forced_expire_) return true;
  return deadline_ != kNoDeadline && Clock::now() >= deadline_;
}

void ResourceGovernor::check_deadline(const char* where) {
  if (suspend_ != 0) return;
  if (forced_expire_) {
    obs::add("budget.exceeded_time");
    throw BudgetExceeded(BudgetExceeded::Resource::kTime, where,
                         "deadline forced by fault injection (elapsed " +
                             std::to_string(elapsed_ms()) + " ms)");
  }
  if (deadline_ == kNoDeadline || Clock::now() < deadline_) return;
  obs::add("budget.exceeded_time");
  throw BudgetExceeded(BudgetExceeded::Resource::kTime, where,
                       "deadline of " + std::to_string(budget_.time_ms) +
                           " ms passed (elapsed " + std::to_string(elapsed_ms()) +
                           " ms)");
}

void ResourceGovernor::check_depth(int depth, const char* where) {
  if (suspend_ != 0 || budget_.max_depth == 0) return;
  if (depth <= budget_.max_depth) return;
  obs::add("budget.exceeded_depth");
  throw BudgetExceeded(BudgetExceeded::Resource::kDepth, where,
                       "recursion depth " + std::to_string(depth) + " exceeds budget " +
                           std::to_string(budget_.max_depth));
}

void ResourceGovernor::force_expire() noexcept {
  // A flag rather than moving deadline_: the trip message attributes the
  // expiry to fault injection instead of a fictitious 0 ms budget.
  forced_expire_ = true;
}

void ResourceGovernor::raise_degrade(int to_level, const std::string& phase,
                                     const std::string& reason) {
  if (to_level <= report_.final_level) return;
  DegradeEvent ev;
  ev.from_level = report_.final_level;
  ev.to_level = to_level;
  ev.phase = phase;
  ev.reason = reason;
  report_.events.push_back(std::move(ev));
  report_.final_level = to_level;
  obs::add("budget.degrade_events");
  obs::add(std::string("budget.degrade_to_") + degrade_level_name(to_level));
  obs::gauge_max("budget.degrade_level", to_level);
}

void ResourceGovernor::overrun_ops() {
  obs::add("budget.exceeded_ops");
  throw BudgetExceeded(BudgetExceeded::Resource::kOps, "bdd.mk",
                       std::to_string(ops_used()) + " operations exceed budget " +
                           std::to_string(op_ceiling_));
}

void ResourceGovernor::overrun_nodes(std::size_t population) {
  obs::add("budget.exceeded_nodes");
  throw BudgetExceeded(BudgetExceeded::Resource::kNodes, "bdd.mk",
                       "node population " + std::to_string(population) +
                           " exceeds budget " + std::to_string(node_ceiling_));
}

ResourceGovernor::Scope::Scope(ResourceGovernor& g) : prev_(g_current) {
  g_current = &g;
}

ResourceGovernor::Scope::~Scope() { g_current = prev_; }

ResourceGovernor* ResourceGovernor::current() noexcept { return g_current; }

}  // namespace mfd
