// power_namespace_demo: the two-stage defense of §V, end to end.
//
// Stage 2 (power-based namespace): train the regression power model on the
// Fig 6/7 workloads, enable the namespace, and show that (a) each container
// reads only its own consumption through the *unchanged* RAPL interface,
// (b) the host keeps hardware truth, and (c) per-container readings enable
// a finer-grained billing view. Stage 1 (masking) closes the remaining
// channels. The defended host is a pinned 1x1 facility: the spec carries
// the trained model and the engine wires the namespace around the tenant
// containers.
#include <cstdio>

#include "containerleaks.h"
#include "sim/engine.h"

using namespace cleaks;

namespace {

double container_power_w(const container::Container& instance,
                         sim::SimEngine& engine, SimDuration window) {
  const auto before = instance.read_file(
      "/sys/class/powercap/intel-rapl:0/energy_uj");
  engine.step(window);
  const auto after = instance.read_file(
      "/sys/class/powercap/intel-rapl:0/energy_uj");
  return (parse_first_double(after.value()) -
          parse_first_double(before.value())) /
         1e6 / to_seconds(window);
}

}  // namespace

int main() {
  std::printf("training the power model on the Fig 6/7 workload sweep...\n");
  auto model = defense::train_default_model(/*seed=*/2017);
  if (!model.is_ok()) {
    std::printf("training failed: %s\n", model.status().to_string().c_str());
    return 1;
  }
  std::printf("  core model R^2 = %.4f, DRAM model R^2 = %.4f, lambda = %.2f W\n\n",
              model.value().core_model().r2, model.value().dram_model().r2,
              model.value().lambda_w());

  sim::ScenarioSpec spec;
  spec.name = "power-namespace-demo";
  spec.datacenter.servers_per_rack = 1;
  spec.datacenter.benign_load = false;
  spec.datacenter.profile = cloud::local_testbed();
  spec.datacenter.pinned_host = cloud::PinnedHost{.seed = 7};
  spec.host_tick = 100 * kMillisecond;
  spec.defense.model = std::move(model).value();
  spec.defense.enable = true;  // switched on after the containers exist
  container::ContainerConfig config;
  config.num_cpus = 4;
  spec.fleet.placement = sim::FleetSpec::Placement::kDirect;
  spec.fleet.count = 2;
  spec.fleet.container = config;
  sim::SimEngine engine(spec);

  container::Container& heavy = engine.fleet_instance(0);
  container::Container& light = engine.fleet_instance(1);
  engine.step(2 * kSecond);

  // Tenant "heavy" runs a memory-bound SPEC workload on 4 cores; tenant
  // "light" runs a single low-duty service.
  const auto milc = workload::spec_suite()[10];  // 433.milc
  for (int copy = 0; copy < 4; ++copy) heavy.run("433.milc", milc.behavior);
  auto service = workload::web_server();
  light.run("nginx", service.behavior);
  engine.step(5 * kSecond);

  const double heavy_w = container_power_w(heavy, engine, 10 * kSecond);
  const double light_w = container_power_w(light, engine, 10 * kSecond);
  cloud::Server& server = engine.server(0);
  const double host_before = server.host().lifetime_energy_j();
  engine.step(10 * kSecond);
  const double host_w =
      (server.host().lifetime_energy_j() - host_before) / 10.0;

  std::printf("per-container power through the unchanged RAPL interface:\n");
  std::printf("  host (hardware truth)  : %6.2f W\n", host_w);
  std::printf("  container 'heavy'      : %6.2f W\n", heavy_w);
  std::printf("  container 'light'      : %6.2f W\n", light_w);
  std::printf(
      "\na power-aware billing model (%.1f c/kWh equivalent surcharge):\n",
      12.0);
  std::printf("  heavy tenant surcharge : $%.5f per hour\n",
              heavy_w / 1000.0 * 0.12);
  std::printf("  light tenant surcharge : $%.5f per hour\n",
              light_w / 1000.0 * 0.12);

  // Stage 1 on top: mask every remaining Table I channel.
  defense::apply_stage1_masking(server.runtime());
  std::printf("\nafter stage-1 masking:\n");
  for (const char* path :
       {"/proc/uptime", "/proc/timer_list", "/proc/meminfo"}) {
    std::printf("  read %-18s -> %s\n", path,
                heavy.read_file(path).status().to_string().c_str());
  }
  std::printf("  read %-18s -> still served, per-container view\n",
              "RAPL energy_uj");
  return 0;
}
