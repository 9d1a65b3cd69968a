#include "core/budget.h"

#include "obs/obs.h"

namespace mfd {

const char* degrade_level_name(int level) {
  switch (level) {
    case kDegradeFull: return "full";
    case kDegradeStructural: return "structural";
  }
  return "?";
}

ResourceGovernor::ResourceGovernor(const ResourceBudget& budget)
    : budget_(budget),
      start_(Clock::now()),
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

void ResourceGovernor::force_expire() noexcept {
  // A flag rather than moving deadline_: the trip message attributes the
  // expiry to fault injection instead of a fictitious 0 ms budget.
  forced_expire_ = true;
}

void ResourceGovernor::degrade(const std::string& phase, const std::string& reason) {
  if (report_.final_level == kDegradeStructural) return;
  report_.events.push_back(DegradeEvent{phase, reason});
  report_.final_level = kDegradeStructural;
  obs::add("budget.degrade_events");
  obs::add("budget.degrade_to_structural");
  obs::gauge_max("budget.degrade_level", kDegradeStructural);
}

void ResourceGovernor::replay(const DegradationReport& other) {
  report_.suspended_sections += other.suspended_sections;
  if (!other.degraded() || report_.degraded()) return;
  report_.events.push_back(other.events.front());
  report_.final_level = other.final_level;
}

void ResourceGovernor::overrun_nodes(std::size_t population) {
  obs::add("budget.exceeded_nodes");
  throw BudgetExceeded(BudgetExceeded::Resource::kNodes, "bdd.mk",
                       "node population " + std::to_string(population) +
                           " exceeds budget " + std::to_string(node_ceiling_));
}

ResourceGovernor::Scope::Scope(ResourceGovernor& g) : prev_(current_) {
  current_ = &g;
}

ResourceGovernor::Scope::~Scope() { current_ = prev_; }

}  // namespace mfd
