// Declarative experiment layer (the "scenario engine").
//
// A ScenarioSpec is a pure value describing one ContainerLeaks experiment:
// the facility (always a Datacenter; testbed-style runs pin a 1x1 one, see
// DatacenterConfig::pinned_host), the provider in front of it, a warmup
// schedule, the attacker fleet (placement + control strategy), and the
// defense wiring. A
// SimEngine (engine.h) builds the world from the spec in a fixed order so
// that every bench and example constructs *identical* RNG streams — the
// pinned invariant is that refactoring a bench onto a spec changes no
// output bit at any CLEAKS_THREADS value.
#pragma once

#include <optional>
#include <string>

#include "attack/strategy.h"
#include "faults/plan.h"
#include "cloud/datacenter.h"
#include "cloud/provider.h"
#include "container/container.h"
#include "defense/power_model.h"
#include "obs/export.h"
#include "util/sim_time.h"

namespace cleaks::sim {

/// Provider fronting the datacenter (billing + placement + launch API),
/// built with the default rates and 8 instances per server.
struct ProviderSpec {
  std::uint64_t seed = 0;
  cloud::PlacementPolicy placement = cloud::PlacementPolicy::kRandom;
  /// Benign tenants launched (1-arg launch) before the fleet deploys, named
  /// "background-<i>".
  int background_tenants = 0;
};

/// Step length of the warmup fast-forward (written to the spec JSON as
/// `step_s`). Hosts tick every 5 s during the warmup and every 1 s in the
/// measured phase after it (SimEngine's constants).
inline constexpr SimDuration kWarmupStep = 30 * kSecond;

/// The shared "fast-forward to the morning demand ramp" warmup (simulated
/// t=0 is midnight; crests only exist where load moves): coarse steps of
/// kWarmupStep until `until`, then the measured phase. Benches used to
/// hand-roll this loop with silently diverging lengths;
/// SimEngine::run_until is now the single copy.
struct WarmupSpec {
  SimTime until = 9 * kHour;
};

/// The attacker-controlled containers: how they are placed and how they
/// are driven each step.
struct FleetSpec {
  enum class Placement {
    kNone,            ///< no fleet
    kOnePerServer,    ///< one instance directly on every server (Fig 3)
    kDirect,          ///< `count` instances on server 0 (testbed runs)
    kProviderLaunch,  ///< `count` instances via CloudProvider::launch
    kOrchestrated,    ///< CoResidenceOrchestrator::acquire (Fig 4, §IV-C)
  };
  enum class Control {
    kIdle,         ///< fleet exists but is not driven
    kAutonomous,   ///< each PowerAttacker steps itself (its own strategy)
    kMonitor,      ///< observe only: maintain the coordinated high-water
    kCoordinated,  ///< fleet-wide crest trigger (Fig 3's, in engine.cpp)
  };

  Placement placement = Placement::kNone;
  /// Instances for kDirect / kProviderLaunch, group size for kOrchestrated.
  int count = 1;
  /// Container config; nullopt = provider/runtime default (matters for
  /// kProviderLaunch, whose 1-arg overload bills differently).
  std::optional<container::ContainerConfig> container;
  std::string tenant = "attacker";
  int max_launches = 100;          ///< kOrchestrated launch budget
  bool attackers = false;          ///< attach a PowerAttacker per instance
  attack::AttackConfig attack;
  bool monitors = false;           ///< attach a RaplMonitor per instance
  Control control = Control::kIdle;
  /// Deploy during SimEngine construction (after warmup). Clear it for
  /// scenarios that place the fleet mid-run (capping_window).
  bool deploy_on_build = true;
};

/// Defense wiring on server 0's runtime.
struct DefenseSpec {
  /// Trained model => construct a PowerNamespace (§V-B) once the fleet
  /// has deployed; `enable` switches it on.
  std::optional<defense::PowerModel> model;
  bool enable = false;
};

/// The complete declarative experiment description.
struct ScenarioSpec {
  std::string name = "scenario";
  /// Facility. A testbed run (one named host) is a 1x1 datacenter with
  /// benign_load = false and pinned_host set.
  cloud::DatacenterConfig datacenter;
  /// Host tick applied at build, before warmup (0 = profile default).
  SimDuration host_tick = 0;
  std::optional<ProviderSpec> provider;
  std::optional<WarmupSpec> warmup;
  FleetSpec fleet;
  DefenseSpec defense;
  /// Deterministic fault schedule (empty = no faults injected). Applied to
  /// every server's pseudo-fs at build; kRaplWrapForce rules fire at step
  /// boundaries; kPerfDropout is consumed by the defense trainer.
  faults::FaultPlan faults;
};

/// Aggregated outcome of a run, serialized through obs::BenchReport.
/// Peaks/steps cover the *measured* window (since the last
/// SimEngine::reset_measurement), matching bench headline semantics.
struct ScenarioResult {
  std::string scenario;
  int num_servers = 0;
  std::uint64_t seed = 0;
  double end_s = 0.0;              ///< sim clock at result() time
  std::uint64_t steps = 0;
  double sim_seconds = 0.0;
  double peak_total_w = 0.0;
  double peak_rack_w = 0.0;
  bool breaker_tripped = false;
  int fleet_size = 0;
  int spikes = 0;                  ///< crest triggers, else summed attacker stats
  double attack_seconds = 0.0;
  double monitor_seconds = 0.0;
  int launches = 0;                ///< kOrchestrated acquisition effort
  int verifications = 0;
  bool acquisition_success = false;

  /// Append as an object under `key` to an open JSON object.
  void append_json(obs::JsonWriter& json, std::string_view key = "result") const;
};

std::string to_string(FleetSpec::Placement placement);
std::string to_string(FleetSpec::Control control);

/// Append the spec as an object under `key` — the declarative record of
/// what ran, embedded in every scenario-driven bench envelope.
void append_spec_json(const ScenarioSpec& spec, obs::JsonWriter& json,
                      std::string_view key = "spec");

}  // namespace cleaks::sim
