// synergistic_attack: the full §IV kill chain on a simulated container
// cloud — co-residence orchestration, RAPL monitoring, crest-timed power
// spikes — with the rack breaker and the billing meter watching. The
// whole engagement is one declarative scenario: the spec places the
// orchestrated fleet, the engine steps the attack.
#include <cstdio>

#include "containerleaks.h"
#include "sim/engine.h"

using namespace cleaks;

int main() {
  // A one-rack cloud with oversubscribed power: 8 busy servers against a
  // breaker rated well below their combined peak draw.
  sim::ScenarioSpec spec;
  spec.name = "synergistic-attack";
  spec.datacenter.servers_per_rack = 8;
  spec.datacenter.benign_load = true;
  spec.datacenter.seed = 1337;
  // Heavy oversubscription: the branch circuit is rated just above the
  // fleet's typical peak (§II-C: power provisioning assumes neighbours
  // do not peak together).
  spec.datacenter.rack_breaker.rated_w = 1500.0;
  spec.datacenter.rack_breaker.thermal_capacity = 2.5;
  spec.datacenter.profile.default_container_cpus = 8;
  sim::ProviderSpec provider;
  provider.seed = 42;
  spec.provider = provider;
  spec.fleet.placement = sim::FleetSpec::Placement::kOrchestrated;
  spec.fleet.count = 3;
  spec.fleet.tenant = "mallory";
  spec.fleet.max_launches = 80;
  spec.fleet.attackers = true;
  spec.fleet.attack.kind = attack::StrategyKind::kSynergistic;
  spec.fleet.attack.min_history = 240;
  spec.fleet.attack.trigger_percentile = 92.0;
  spec.fleet.attack.trigger_margin = 0.05;
  spec.fleet.attack.spike_duration = 30 * kSecond;
  spec.fleet.attack.cooldown = 300 * kSecond;
  spec.fleet.control = sim::FleetSpec::Control::kAutonomous;

  std::printf("phase 1: aggregate containers on one physical server\n");
  sim::SimEngine engine(spec);
  const attack::OrchestratorResult& group = engine.acquisition();
  if (!group.success) {
    std::printf("  could not aggregate instances; aborting\n");
    return 1;
  }
  std::printf("  %zu co-resident instances after %d launches\n",
              group.instances.size(), group.launches);

  std::printf("phase 2: monitor host power through the leaked RAPL channel\n");
  std::printf("phase 3: superimpose power viruses on benign crests\n");
  double peak_rack_w = 0.0;
  int tripped_at = -1;
  engine.run_steps(
      5400, kSecond,
      [&](sim::SimEngine& e, const sim::StepContext& ctx) {
        peak_rack_w = std::max(peak_rack_w, e.rack_power_w(0));
        if (tripped_at < 0 && e.datacenter().rack_breaker(0).tripped()) {
          tripped_at = ctx.index;
        }
      });

  std::printf("\noutcome after 90 simulated minutes:\n");
  std::printf("  rack peak power      : %.0f W (breaker rated %.0f W)\n",
              peak_rack_w, spec.datacenter.rack_breaker.rated_w);
  std::printf("  breaker tripped      : %s\n",
              tripped_at >= 0 ? "YES" : "no");
  if (tripped_at >= 0) std::printf("  outage at            : t=%d s\n", tripped_at);
  int spikes = 0;
  double attack_seconds = 0.0;
  for (int i = 0; i < engine.fleet_size(); ++i) {
    spikes += engine.attacker(i).stats().spikes_launched;
    attack_seconds += engine.attacker(i).stats().attack_seconds;
  }
  std::printf("  spikes / attack time : %d / %.0f s\n", spikes, attack_seconds);
  const sim::SimEngine::BillingProbe bill = engine.billing_probe("mallory");
  std::printf("  attacker's bill      : $%.4f\n", bill.cost_usd);

  obs::BenchReport report("example_synergistic_attack");
  engine.append_report_json(report.json());
  report.json()
      .field("peak_rack_w", peak_rack_w)
      .field("tripped_at_s", tripped_at)
      .field("spikes", spikes)
      .field("attack_seconds", attack_seconds)
      .field("bill_usd", bill.cost_usd);
  const std::string path = report.write();
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());
  return 0;
}
