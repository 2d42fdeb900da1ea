// §II-C / §IV-A: the power-capping latency gap.
//
// "Although host-level power capping for a single server could respond
// immediately to power surges, the power capping mechanisms at the rack or
// PDU level still suffer from minute-level delays" — leaving the window in
// which a short synchronized spike can trip the breaker. This bench
// measures both reaction times in the simulator:
//   (a) host-level RAPL capping: seconds until a saturating workload is
//       throttled below the package cap (bare kernel::Host — below the
//       scenario layer on purpose);
//   (b) rack-level capping (minute-interval average feedback): whether a
//       30-second 8-server spike completes before any throttling lands —
//       a scenario with a deferred-deploy fleet.
#include <algorithm>
#include <cstdio>

#include "obs/export.h"
#include "sim/engine.h"
#include "workload/profiles.h"

using namespace cleaks;

namespace {

/// The capped-rack facility shared by parts (b) and (c).
sim::ScenarioSpec capped_rack_spec(const char* name) {
  sim::ScenarioSpec spec;
  spec.name = name;
  spec.datacenter.servers_per_rack = 8;
  spec.datacenter.benign_load = true;
  spec.datacenter.seed = 32;
  spec.datacenter.rack_power_cap_w = 1500.0;
  spec.datacenter.capping_interval = kMinute;
  container::ContainerConfig cc;
  cc.num_cpus = 8;
  spec.fleet.placement = sim::FleetSpec::Placement::kOnePerServer;
  spec.fleet.container = cc;
  spec.fleet.deploy_on_build = false;  // the spike is fired mid-run
  return spec;
}

}  // namespace

int main() {
  std::printf("== power-capping reaction windows ==\n\n");

  // --- (a) host-level RAPL cap ---
  auto hwspec = hw::testbed_i7_6700();
  hwspec.rapl_power_cap_w = 50.0;
  kernel::Host host("capped", hwspec, 31);
  host.set_tick_duration(100 * kMillisecond);
  auto virus = workload::power_virus();
  for (int i = 0; i < hwspec.num_cores; ++i) {
    host.spawn_task({.comm = "virus", .behavior = virus.behavior});
  }
  host.advance(200 * kMillisecond);
  const double host_peak_w = host.last_tick_power_w();
  double host_reaction_s = -1.0;
  for (int tick = 1; tick <= 600; ++tick) {  // 60 s of 100 ms ticks
    host.advance(100 * kMillisecond);
    // Fully engaged throttle: the DVFS floor (50% frequency) is reached,
    // roughly halving the dynamic power.
    if (host.last_tick_power_w() <= host_peak_w * 0.62) {
      host_reaction_s = tick * 0.1;
      break;
    }
  }
  std::printf(
      "host-level RAPL cap (50 W): throttle fully engaged within %.1f s "
      "(%.0f W -> %.0f W)\n",
      host_reaction_s, host_peak_w, host.last_tick_power_w());

  // --- (b) rack-level capping, 60 s feedback interval ---
  sim::SimEngine engine(capped_rack_spec("capping-spike"));
  // Settle, then fire a synchronized 30 s fleet-wide spike.
  engine.run_steps(90, kSecond);
  engine.deploy_fleet();
  engine.fleet_run("spike", virus.behavior, 8);
  double spike_peak = 0.0;
  double spike_min = 1e9;
  engine.run_steps(
      30, kSecond,
      [&](sim::SimEngine& e, const sim::StepContext&) {
        spike_peak = std::max(spike_peak, e.rack_power_w(0));
        spike_min = std::min(spike_min, e.rack_power_w(0));
      });
  engine.destroy_fleet();
  const double rack_cap_w = engine.spec().datacenter.rack_power_cap_w;
  const bool spike_survived = spike_min > rack_cap_w;
  std::printf(
      "rack-level cap (1500 W, 60 s loop): 30 s spike ran at %.0f-%.0f W — "
      "%s\n",
      spike_min, spike_peak,
      spike_survived ? "never throttled inside the window"
                     : "was throttled mid-spike");

  // Longer overload IS eventually caught by the rack loop: fresh facility,
  // load starts right after a feedback check so the full interval must
  // elapse before enforcement.
  sim::SimEngine engine2(capped_rack_spec("capping-sustained"));
  engine2.run_steps(61, kSecond);
  engine2.deploy_fleet();
  engine2.fleet_run("sustained", virus.behavior, 8);
  double sustained_baseline = 0.0;
  double sustained_reaction_s = -1.0;
  for (int second = 1; second <= 300; ++second) {
    engine2.step(kSecond);
    if (second == 5) sustained_baseline = engine2.rack_power_w(0);
    if (second > 5 && engine2.rack_power_w(0) < sustained_baseline * 0.85) {
      sustained_reaction_s = second;
      break;
    }
  }
  std::printf(
      "rack-level cap vs sustained overload: enforcement bites after %.0f s\n",
      sustained_reaction_s);

  std::printf(
      "\npaper: host capping reacts at ms level; rack/PDU capping has "
      "minute-level delay — short spikes fit inside the gap\n");
  const bool shape_holds = host_reaction_s > 0 && host_reaction_s < 10.0 &&
                           spike_survived && sustained_reaction_s > 20.0;
  std::printf("shape holds: %s\n", shape_holds ? "YES" : "NO");

  obs::BenchReport report("capping_window");
  report.json()
      .field("host_reaction_s", host_reaction_s)
      .field("host_peak_w", host_peak_w)
      .field("spike_min_w", spike_min)
      .field("spike_peak_w", spike_peak)
      .field("spike_survived", spike_survived)
      .field("sustained_reaction_s", sustained_reaction_s)
      .field("shape_holds", shape_holds);
  report.json().begin_object("spike");
  engine.append_report_json(report.json());
  report.json().end_object().begin_object("sustained");
  engine2.append_report_json(report.json());
  report.json().end_object();
  const std::string path = report.write();
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());
  return shape_holds ? 0 : 1;
}
