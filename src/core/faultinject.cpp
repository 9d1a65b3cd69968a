#include "core/faultinject.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/budget.h"
#include "core/errors.h"
#include "obs/obs.h"

namespace mfd::fault {
namespace {

enum class Kind { kBudget, kAlloc, kTimeout };

struct Rule {
  std::string site;
  std::uint64_t at = 0;  // 1-based hit count
  Kind kind = Kind::kBudget;
};

// One instrumented site of the active configuration: its hits so far and
// the rules aimed at it. Hit ordinals only grow, so each rule fires at most
// once.
struct Site {
  std::string name;
  std::uint64_t hits = 0;
  std::vector<Rule> rules;
};

// The active configuration, replaced wholesale by configure()/clear().
std::vector<Site> g_sites;

Kind parse_kind(const std::string& s, int rule_index) {
  if (s == "budget") return Kind::kBudget;
  if (s == "alloc") return Kind::kAlloc;
  if (s == "timeout") return Kind::kTimeout;
  throw ParseError("<fault-spec>", rule_index,
                   "unknown fault kind '" + s + "' (expected budget|alloc|timeout)");
}

std::vector<Rule> parse_spec(const std::string& spec) {
  std::vector<Rule> rules;
  std::size_t pos = 0;
  int index = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string part = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (part.empty()) {
      if (comma == spec.size()) break;
      continue;
    }
    ++index;
    const std::size_t at = part.find('@');
    if (at == std::string::npos || at == 0)
      throw ParseError("<fault-spec>", index,
                       "rule '" + part + "' is missing 'site@k' (e.g. bdd.mk@10)");
    Rule r;
    r.site = part.substr(0, at);
    std::string rest = part.substr(at + 1);
    const std::size_t colon = rest.find(':');
    if (colon != std::string::npos) {
      r.kind = parse_kind(rest.substr(colon + 1), index);
      rest.resize(colon);
    }
    if (rest.empty() || rest.find_first_not_of("0123456789") != std::string::npos)
      throw ParseError("<fault-spec>", index,
                       "rule '" + part + "' has a non-numeric hit count '" + rest + "'");
    errno = 0;
    r.at = std::strtoull(rest.c_str(), nullptr, 10);
    if (errno == ERANGE)
      throw ParseError("<fault-spec>", index,
                       "rule '" + part + "' has a hit count out of range '" + rest + "'");
    if (r.at == 0)
      throw ParseError("<fault-spec>", index,
                       "rule '" + part + "' has hit count 0 (counts are 1-based)");
    rules.push_back(std::move(r));
  }
  return rules;
}

}  // namespace

namespace detail {

bool g_armed = false;

void point_slow(const char* site) {
  Site* found = nullptr;
  for (Site& s : g_sites)
    if (s.name == site) {
      found = &s;
      break;
    }
  if (found == nullptr) return;  // no rule mentions this site: don't count it
  const std::uint64_t ordinal = ++found->hits;
  const Rule* rule = nullptr;
  for (const Rule& r : found->rules)
    if (r.at == ordinal) {
      rule = &r;
      break;
    }
  if (rule == nullptr) return;
  obs::add("fault.fired");
  obs::add(std::string("fault.fired.") + site);
  switch (rule->kind) {
    case Kind::kBudget:
      throw BudgetExceeded(BudgetExceeded::Resource::kInjected, site,
                           "fault injection (kind=budget)");
    case Kind::kAlloc:
      throw std::bad_alloc();
    case Kind::kTimeout:
      if (ResourceGovernor* g = ResourceGovernor::current()) {
        g->force_expire();
        return;  // the next deadline check fires; this site continues
      }
      throw BudgetExceeded(BudgetExceeded::Resource::kInjected, site,
                           "fault injection (kind=timeout, no governor installed)");
  }
}

}  // namespace detail

void configure(const std::string& spec) {
  std::vector<Rule> rules = parse_spec(spec);  // may throw; old spec stays armed
  std::vector<Site> sites;
  for (Rule& r : rules) {
    Site* site = nullptr;
    for (Site& s : sites)
      if (s.name == r.site) {
        site = &s;
        break;
      }
    if (site == nullptr) {
      sites.push_back(Site{r.site, 0, {}});
      site = &sites.back();
    }
    site->rules.push_back(std::move(r));
  }
  g_sites = std::move(sites);
  detail::g_armed = !g_sites.empty();
}

void clear() {
  g_sites.clear();
  detail::g_armed = false;
}

namespace {

// MFD_FAULT_INJECT arms a spec before main() runs. This path must never
// throw: a malformed variable is reported and ignored, not fatal.
[[maybe_unused]] const bool g_env_armed = [] {
  const char* env = std::getenv("MFD_FAULT_INJECT");
  if (env == nullptr || env[0] == '\0') return false;
  try {
    configure(env);
  } catch (const ParseError& e) {
    std::fprintf(stderr, "MFD_FAULT_INJECT ignored: %s\n", e.what());
  }
  return detail::g_armed;
}();

}  // namespace

std::vector<std::string> registered_sites() {
  return {"bdd.mk",         "bdd.alloc",       "bdd.ite",
          "util.coloring",  "sym.symmetrize",  "decomp.boundset",
          "decomp.dc_assign"};
}

std::vector<std::string> kind_names() {
  return {"budget", "alloc", "timeout"};
}

}  // namespace mfd::fault
