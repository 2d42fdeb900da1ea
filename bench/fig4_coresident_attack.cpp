// Fig 4: power consumption of a single server as an attacker aggregates
// co-resident containers onto it (§IV-C).
//
// The attacker repeatedly launches container instances on the cloud,
// verifies co-residence against its anchor through /proc/timer_list (the
// channel used in the paper's CC1 experiment), terminates misses, and
// keeps hits until three containers share one physical server. Each
// container then starts four copies of the Prime benchmark on its four
// dedicated cores, staggered, while the server's power is recorded. The
// acquisition loop is the scenario engine's kOrchestrated fleet placement.
//
// Paper headline: each container adds ~40 W; with three containers the
// attacker raises the server by ~120 W to ~230 W total.
#include <cstdio>
#include <string>
#include <vector>

#include "obs/export.h"
#include "sim/engine.h"
#include "workload/profiles.h"

using namespace cleaks;

int main() {
  std::printf("== Fig 4: aggregating containers on one server ==\n\n");

  sim::ScenarioSpec spec;
  spec.name = "fig4-coresident-attack";
  spec.datacenter.num_racks = 1;
  spec.datacenter.servers_per_rack = 8;
  spec.datacenter.benign_load = false;  // isolate the attacker's contribution
  spec.datacenter.seed = 77;
  sim::ProviderSpec provider;
  provider.seed = 1234;
  spec.provider = provider;
  spec.fleet.placement = sim::FleetSpec::Placement::kOrchestrated;
  spec.fleet.count = 3;
  spec.fleet.tenant = "attacker";
  spec.fleet.max_launches = 100;
  sim::SimEngine engine(spec);

  const attack::OrchestratorResult& acquisition = engine.acquisition();
  if (!acquisition.success) {
    std::printf("failed to aggregate 3 co-resident instances\n");
    return 1;
  }
  std::printf(
      "orchestration: %d launches, %d verifications to place 3 containers "
      "on one server (paper: trivial effort)\n\n",
      acquisition.launches, acquisition.verifications);

  const int server_index = engine.provider().server_of(
      acquisition.instances.front()->instance_id);

  engine.run_steps(30, kSecond);
  std::printf("t_s,server_w,phase\n");
  int t = 0;
  auto record = [&](int seconds, const std::string& phase) {
    engine.run_steps(
        seconds, kSecond,
        [&](sim::SimEngine& e, const sim::StepContext&) {
          ++t;
          if (t % 5 == 0) {
            std::printf("%d,%.1f,%s\n", t, e.server_power_w(server_index),
                        phase.c_str());
          }
        });
  };

  record(30, "baseline");
  std::vector<double> levels = {engine.server_power_w(server_index)};

  const workload::Profile prime = workload::prime_fig4();
  for (int i = 0; i < engine.fleet_size(); ++i) {
    for (int copy = 0; copy < 4; ++copy) {
      engine.fleet_instance(i).run("prime95", prime.behavior);
    }
    record(60, "container" + std::to_string(i + 1));
    levels.push_back(engine.server_power_w(server_index));
  }

  std::printf("\nsummary:\n");
  std::printf("  baseline                : %.0f W\n", levels[0]);
  for (std::size_t i = 1; i < levels.size(); ++i) {
    std::printf("  +container %zu           : %.0f W  (delta %.0f W)\n", i,
                levels[i], levels[i] - levels[i - 1]);
  }
  std::printf("  total attacker addition : %.0f W\n",
              levels.back() - levels.front());
  std::printf(
      "paper: ~40 W per container, ~230 W with three containers on one "
      "server\n");

  obs::BenchReport report("fig4_coresident_attack");
  engine.append_report_json(report.json());
  report.json().begin_array("levels_w");
  for (const double level : levels) report.json().element(level);
  report.json()
      .end_array()
      .field("addition_w", levels.back() - levels.front());
  const std::string path = report.write();
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());
  return 0;
}
