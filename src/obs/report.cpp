#include "obs/internal.h"
#include "obs/json.h"
#include "obs/obs.h"

namespace mfd::obs {
namespace {

void write_phase(JsonWriter& w, const PhaseNode& node) {
  w.begin_object();
  w.key("name").value(std::string_view(node.name));
  w.key("calls").value(node.calls);
  w.key("seconds").value(node.seconds);
  if (!node.children.empty()) {
    w.key("children").begin_array();
    for (const PhaseNode& c : node.children) write_phase(w, c);
    w.end_array();
  }
  w.end_object();
}

}  // namespace

std::string Report::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("phases");
  write_phase(w, phases);
  w.key("counters").begin_object();
  for (const auto& [name, value] : counters) w.key(name).value(value);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : gauges) w.key(name).value(value);
  w.end_object();
  w.end_object();
  return w.str();
}

Report collect() {
  Report r;
  if (!enabled()) return r;
  r.phases = detail::snapshot_phases();
  detail::snapshot_scalars(&r.counters, &r.gauges);
  return r;
}

void merge(const Report& report) {
  if (!enabled()) return;
  for (const auto& [name, value] : report.counters) add(name, value);
  for (const auto& [name, value] : report.gauges) gauge_max(name, value);
  detail::merge_phases(report.phases);
}

void reset() {
  detail::reset_scalars();
  detail::reset_phases();
}

}  // namespace mfd::obs
