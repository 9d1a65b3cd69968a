#include "core/faultinject.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
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

// One instrumented site of the active configuration. Hit counting and the
// one-shot latches are atomics: when a site fires from several threads at
// once, fetch_add hands every hit a unique ordinal, so exactly one thread
// sees `ordinal == rule.at` and the rule trips exactly once — `site@k` stays
// deterministic regardless of interleaving. (`fired` is a belt-and-braces
// latch; the ordinal alone already guarantees uniqueness.)
struct Site {
  std::string name;
  std::atomic<std::uint64_t> hits{0};
  struct Armed {
    std::uint64_t at = 0;
    Kind kind = Kind::kBudget;
    std::atomic<bool> fired{false};
  };
  std::vector<std::unique_ptr<Armed>> rules;  // immutable after configure
};

// The active configuration, replaced wholesale by configure()/clear(). The
// mutex guards only the pointer swap; point_slow copies the shared_ptr and
// then counts lock-free, so a reconfigure can never free state under a
// concurrent hit.
struct Config {
  std::vector<std::unique_ptr<Site>> sites;
};
std::mutex g_mutex;
std::shared_ptr<const Config> g_config;

std::shared_ptr<const Config> config_snapshot() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_config;
}

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
    r.at = std::strtoull(rest.c_str(), nullptr, 10);
    if (r.at == 0)
      throw ParseError("<fault-spec>", index,
                       "rule '" + part + "' has hit count 0 (counts are 1-based)");
    rules.push_back(std::move(r));
  }
  return rules;
}

}  // namespace

namespace detail {

std::atomic<bool> g_armed{false};

void init_from_env_once() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* env = std::getenv("MFD_FAULT_INJECT");
    if (env == nullptr || env[0] == '\0') return;
    // The env path must never throw: armed() is consulted from BDD hot
    // paths, and a malformed variable should not take the process down.
    try {
      configure(env);
    } catch (const ParseError& e) {
      std::fprintf(stderr, "MFD_FAULT_INJECT ignored: %s\n", e.what());
    }
  });
}

void point_slow(const char* site) {
  const std::shared_ptr<const Config> config = config_snapshot();
  if (config == nullptr) return;
  Site* found = nullptr;
  for (const std::unique_ptr<Site>& s : config->sites)
    if (s->name == site) {
      found = s.get();
      break;
    }
  if (found == nullptr) return;  // no rule mentions this site: don't count it
  const std::uint64_t ordinal = found->hits.fetch_add(1, std::memory_order_relaxed) + 1;
  Kind fire = Kind::kBudget;
  bool fired = false;
  for (const auto& r : found->rules) {
    if (r->at != ordinal) continue;
    if (r->fired.exchange(true, std::memory_order_relaxed)) continue;
    fire = r->kind;
    fired = true;
    break;
  }
  if (!fired) return;
  obs::add("fault.fired");
  obs::add(std::string("fault.fired.") + site);
  switch (fire) {
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
  auto config = std::make_shared<Config>();
  for (Rule& r : rules) {
    Site* site = nullptr;
    for (const std::unique_ptr<Site>& s : config->sites)
      if (s->name == r.site) {
        site = s.get();
        break;
      }
    if (site == nullptr) {
      config->sites.push_back(std::make_unique<Site>());
      site = config->sites.back().get();
      site->name = r.site;
    }
    auto armed = std::make_unique<Site::Armed>();
    armed->at = r.at;
    armed->kind = r.kind;
    site->rules.push_back(std::move(armed));
  }
  const bool any = !config->sites.empty();
  std::lock_guard<std::mutex> lock(g_mutex);
  g_config = std::move(config);
  detail::g_armed.store(any, std::memory_order_relaxed);
}

void clear() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_config = nullptr;
  detail::g_armed.store(false, std::memory_order_relaxed);
}

std::vector<std::string> registered_sites() {
  return {"bdd.mk",         "bdd.alloc",       "bdd.ite",
          "util.coloring",  "sym.symmetrize",  "decomp.boundset",
          "decomp.dc_assign"};
}

std::vector<std::string> kind_names() {
  return {"budget", "alloc", "timeout"};
}

}  // namespace mfd::fault
