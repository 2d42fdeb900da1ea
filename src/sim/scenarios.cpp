#include "sim/scenarios.h"

namespace cleaks::sim {

ScenarioSpec fig3_fleet(attack::StrategyKind kind) {
  ScenarioSpec spec;
  spec.name = "fig3-" + attack::to_string(kind);
  spec.datacenter.num_racks = 1;
  spec.datacenter.servers_per_rack = 8;
  spec.datacenter.benign_load = true;
  spec.datacenter.seed = 4248;  // identical background for both strategies
  spec.warmup = WarmupSpec{};

  container::ContainerConfig cc;
  cc.num_cpus = 8;
  cc.memory_limit_bytes = 8ULL << 30;
  spec.fleet.placement = FleetSpec::Placement::kOnePerServer;
  spec.fleet.container = cc;
  spec.fleet.attackers = true;
  spec.fleet.monitors = true;
  spec.fleet.attack.kind = kind;
  spec.fleet.attack.period = 300 * kSecond;
  spec.fleet.attack.spike_duration = 15 * kSecond;
  spec.fleet.control = FleetSpec::Control::kIdle;
  return spec;
}

}  // namespace cleaks::sim
