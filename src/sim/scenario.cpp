#include "sim/scenario.h"

namespace cleaks::sim {

std::string to_string(FleetSpec::Placement placement) {
  switch (placement) {
    case FleetSpec::Placement::kNone: return "none";
    case FleetSpec::Placement::kOnePerServer: return "one-per-server";
    case FleetSpec::Placement::kDirect: return "direct";
    case FleetSpec::Placement::kProviderLaunch: return "provider-launch";
    case FleetSpec::Placement::kOrchestrated: return "orchestrated";
  }
  return "unknown";
}

std::string to_string(FleetSpec::Control control) {
  switch (control) {
    case FleetSpec::Control::kIdle: return "idle";
    case FleetSpec::Control::kAutonomous: return "autonomous";
    case FleetSpec::Control::kMonitor: return "monitor";
    case FleetSpec::Control::kCoordinated: return "coordinated";
  }
  return "unknown";
}

void append_spec_json(const ScenarioSpec& spec, obs::JsonWriter& json,
                      std::string_view key) {
  json.begin_object(key);
  json.field("name", spec.name);
  json.begin_object("datacenter")
      .field("racks", spec.datacenter.num_racks)
      .field("servers_per_rack", spec.datacenter.servers_per_rack)
      .field("seed", spec.datacenter.seed)
      .field("benign_load", spec.datacenter.benign_load)
      .field("benign_load_servers", spec.datacenter.benign_load_servers)
      .field("rack_power_cap_w", spec.datacenter.rack_power_cap_w)
      .field("num_threads", spec.datacenter.num_threads)
      .field("sparse", spec.datacenter.sparse)
      .end_object();
  if (spec.provider) {
    json.begin_object("provider")
        .field("seed", spec.provider->seed)
        .field("placement", cloud::to_string(spec.provider->placement))
        .field("background_tenants", spec.provider->background_tenants)
        .end_object();
  }
  if (spec.warmup) {
    json.begin_object("warmup")
        .field("until_s", to_seconds(spec.warmup->until))
        .field("step_s", to_seconds(kWarmupStep))
        .end_object();
  }
  json.begin_object("fleet")
      .field("placement", to_string(spec.fleet.placement))
      .field("count", spec.fleet.count)
      .field("tenant", spec.fleet.tenant)
      .field("attackers", spec.fleet.attackers)
      .field("monitors", spec.fleet.monitors)
      .field("control", to_string(spec.fleet.control))
      .field("strategy", attack::to_string(spec.fleet.attack.kind))
      .end_object();
  json.begin_object("defense")
      .field("power_namespace", spec.defense.model.has_value())
      .field("enabled", spec.defense.enable)
      .end_object();
  if (!spec.faults.empty()) {
    faults::append_plan_json(spec.faults, json);
  }
  json.end_object();
}

void ScenarioResult::append_json(obs::JsonWriter& json,
                                 std::string_view key) const {
  json.begin_object(key)
      .field("scenario", scenario)
      .field("num_servers", num_servers)
      .field("seed", seed)
      .field("end_s", end_s)
      .field("steps", steps)
      .field("sim_seconds", sim_seconds)
      .field("peak_total_w", peak_total_w)
      .field("peak_rack_w", peak_rack_w)
      .field("breaker_tripped", breaker_tripped)
      .field("fleet_size", fleet_size)
      .field("spikes", spikes)
      .field("attack_seconds", attack_seconds)
      .field("monitor_seconds", monitor_seconds)
      .field("launches", launches)
      .field("verifications", verifications)
      .field("acquisition_success", acquisition_success)
      .end_object();
}

}  // namespace cleaks::sim
