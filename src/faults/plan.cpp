#include "faults/plan.h"

namespace cleaks::faults {

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTransientUnavailable: return "transient-unavailable";
    case FaultKind::kPermanentDeny: return "permanent-deny";
    case FaultKind::kRaplWrapForce: return "rapl-wrap-force";
    case FaultKind::kPerfDropout: return "perf-dropout";
  }
  return "unknown";
}

void append_plan_json(const FaultPlan& plan, obs::JsonWriter& json,
                      std::string_view key) {
  json.begin_object(key);
  json.field("seed", plan.seed);
  json.begin_array("rules");
  for (const FaultRule& rule : plan.rules) {
    json.begin_object()
        .field("kind", to_string(rule.kind))
        .field("path_glob", rule.path_glob)
        .field("rate", rule.rate)
        .field("period_ns", rule.period)
        .field("duration_ns", rule.duration)
        .field("start_ns", rule.start)
        .field("end_ns", rule.end)
        .field("scale", rule.scale)
        .end_object();
  }
  json.end_array();
  json.end_object();
}

}  // namespace cleaks::faults
