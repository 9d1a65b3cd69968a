#include "obs/obs.h"

#include <cstdlib>

namespace mfd::obs {
namespace {

// MFD_OBS_DISABLED=1 turns the whole layer into a no-op from the
// environment (the overhead A/B knob; set_enabled can still flip it back).
bool g_enabled = std::getenv("MFD_OBS_DISABLED") == nullptr;

// Transparent comparison so string_view lookups never allocate.
using CounterMap = std::map<std::string, std::uint64_t, std::less<>>;
using GaugeMap = std::map<std::string, double, std::less<>>;

// One registry per thread (obs.h).
CounterMap& counters() {
  thread_local CounterMap m;
  return m;
}

GaugeMap& gauges() {
  thread_local GaugeMap m;
  return m;
}

}  // namespace

bool enabled() { return g_enabled; }
void set_enabled(bool on) { g_enabled = on; }

void add(std::string_view name, std::uint64_t delta) {
  if (!enabled()) return;
  CounterMap& m = counters();
  const auto it = m.find(name);
  if (it == m.end())
    m.emplace(std::string(name), delta);
  else
    it->second += delta;
}

void gauge_set(std::string_view name, double value) {
  if (!enabled()) return;
  GaugeMap& m = gauges();
  const auto it = m.find(name);
  if (it == m.end())
    m.emplace(std::string(name), value);
  else
    it->second = value;
}

void gauge_max(std::string_view name, double value) {
  if (!enabled()) return;
  GaugeMap& m = gauges();
  const auto it = m.find(name);
  if (it == m.end())
    m.emplace(std::string(name), value);
  else if (value > it->second)
    it->second = value;
}

std::uint64_t counter_value(std::string_view name) {
  const CounterMap& m = counters();
  const auto it = m.find(name);
  return it == m.end() ? 0 : it->second;
}

double gauge_value(std::string_view name) {
  const GaugeMap& m = gauges();
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

namespace detail {

// Internal: snapshot / reset of the scalar tables (used by report.cpp).
void snapshot_scalars(std::map<std::string, std::uint64_t>* out_counters,
                      std::map<std::string, double>* out_gauges) {
  out_counters->clear();
  out_gauges->clear();
  for (const auto& [k, v] : counters()) out_counters->emplace(k, v);
  for (const auto& [k, v] : gauges()) out_gauges->emplace(k, v);
}

void reset_scalars() {
  counters().clear();
  gauges().clear();
}

}  // namespace detail

}  // namespace mfd::obs
