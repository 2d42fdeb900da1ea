// SimEngine: builds a world from a ScenarioSpec and owns the step loop.
//
// Build order is fixed (facility -> provider -> warmup -> background
// tenants -> fleet -> defense) so every experiment draws the same RNG
// streams as the hand-rolled benches it replaced. The defense is built
// last from server 0's runtime(), which settles a server the warmup
// parked. The paper's fixed experiment constants (Fig 3's crest trigger,
// the warmup's host ticks) are named constants in engine.cpp, not spec
// fields. step() advances physics first, then fleet control, then
// measurement; a run_* hook fires after each step — hooks observe a
// settled world and may mutate it (start/stop viruses, switch control
// mode) for the *next* step, but must not step the engine themselves.
//
// Determinism contract: with a fixed spec, every CLEAKS_THREADS /
// DatacenterConfig::num_threads value produces bitwise-identical traces,
// peaks and results (tests/sim_test.cpp pins this with a digest).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "attack/monitor.h"
#include "attack/orchestrator.h"
#include "attack/strategy.h"
#include "cloud/provider.h"
#include "coresidence/detector.h"
#include "defense/power_namespace.h"
#include "sim/scenario.h"

namespace cleaks::leakage {
class CrossValidator;
}  // namespace cleaks::leakage

namespace cleaks::sim {

/// Snapshot passed to step hooks after physics + control + measurement.
struct StepContext {
  int index = 0;        ///< step index within the current run_* phase
  SimTime now = 0;      ///< sim clock after the step
  double total_w = 0.0; ///< facility power during the step's last tick
};

class SimEngine {
 public:
  using StepHook = std::function<void(SimEngine&, const StepContext&)>;

  explicit SimEngine(ScenarioSpec spec);
  ~SimEngine();

  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  // ---- world access ----
  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] cloud::Datacenter& datacenter() { return *dc_; }
  [[nodiscard]] cloud::CloudProvider& provider() { return *provider_; }
  [[nodiscard]] int num_servers() const { return dc_->num_servers(); }
  [[nodiscard]] cloud::Server& server(int index = 0) {
    return dc_->server(index);
  }
  [[nodiscard]] SimTime now() const { return dc_->now(); }
  [[nodiscard]] defense::PowerNamespace* power_namespace() noexcept {
    return power_ns_.get();
  }

  // ---- fleet ----
  [[nodiscard]] int fleet_size() const noexcept {
    return static_cast<int>(instances_.size());
  }
  [[nodiscard]] container::Container& fleet_instance(int i) {
    return *instances_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] int fleet_server_index(int i) const {
    return instance_server_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] attack::PowerAttacker& attacker(int i) {
    return *attackers_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] attack::RaplMonitor& monitor(int i) {
    return *monitors_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] const attack::OrchestratorResult& acquisition() const noexcept {
    return acquisition_;
  }
  /// Deploy the fleet now (no-op if already deployed). Used by scenarios
  /// with FleetSpec::deploy_on_build = false.
  void deploy_fleet();
  /// Destroy all fleet containers (and their attackers/monitors).
  void destroy_fleet();
  /// Run `copies` tasks of `behavior` inside every fleet instance.
  void fleet_run(const std::string& comm, const kernel::TaskBehavior& behavior,
                 int copies_per_instance = 1);
  /// Summed AttackStats across attackers plus coordinated-crest totals.
  [[nodiscard]] double fleet_attack_seconds() const;
  [[nodiscard]] double fleet_monitor_seconds() const;
  [[nodiscard]] int crest_spikes() const noexcept { return crest_spikes_; }
  void set_fleet_control(FleetSpec::Control control) noexcept {
    control_ = control;
  }

  // ---- event stream ----
  /// Turn on the global event bus and drain it in this engine's
  /// measurement phase every step (the merged stream feeds the digest,
  /// and the global flight recorder when that is enabled). The engine
  /// drains only after this call; build() makes it first when the global
  /// flight recorder is enabled. The accumulated stream digest is
  /// lane-count-independent: same contract as the metrics registry.
  void enable_event_stream();
  [[nodiscard]] std::uint64_t event_stream_digest() const noexcept {
    return events_digest_;
  }
  [[nodiscard]] std::uint64_t events_drained() const noexcept {
    return events_drained_;
  }

  // ---- loop ----
  void step(SimDuration dt);
  /// Run `steps` steps of `dt`; `hook` fires after each.
  ///
  /// Every run_* call throws std::invalid_argument when `dt` is 0 and is a
  /// thin wrapper over one counted loop of step() calls.
  void run_steps(int steps, SimDuration dt, const StepHook& hook = {});
  /// Advance the sim clock by exactly `total`: steps of `dt`, ending with
  /// one final partial step when `total` is not a multiple of `dt` (no
  /// silent truncation).
  void run_for(SimDuration total, SimDuration dt, const StepHook& hook = {});
  /// The deduplicated fast-forward: step until the sim clock reaches
  /// `target` (absolute); the last step may overshoot it. This is the
  /// loop every warmup used to hand-roll.
  void run_until(SimTime target, SimDuration dt, const StepHook& hook = {});
  /// Set the host tick on every server.
  void set_host_tick(SimDuration tick);

  // ---- typed probes ----
  [[nodiscard]] double total_power_w() const;
  [[nodiscard]] double rack_power_w(int rack = 0) const;
  [[nodiscard]] double server_power_w(int index);
  struct BillingProbe {
    double cost_usd = 0.0;
    double cpu_hours = 0.0;
  };
  [[nodiscard]] BillingProbe billing_probe(const std::string& tenant) const;
  /// Table 1 sweep on server 0: one full CrossValidator::scan() pass
  /// (probe container created lazily on first call and retained),
  /// counting leaking (kLeaking) and functional (not masked/absent)
  /// channel paths.
  struct LeakScanProbe {
    int leaking = 0;
    int functional = 0;
    int total_paths = 0;
  };
  [[nodiscard]] LeakScanProbe leak_scan_probe(
      const container::ContainerConfig& probe_config);
  /// Run every co-residence detector between two fresh containers on
  /// server 0; returns how many report kCoResident (total via out-param).
  [[nodiscard]] int coresidence_probe(
      const container::ContainerConfig& probe_config, int* total = nullptr);
  /// §VI-B crest-signal check on server 0: can an observer's RAPL monitor
  /// see a host-side load surge? (The power namespace is meant to say no.)
  [[nodiscard]] bool crest_signal_probe();

  // ---- results ----
  /// Zero the measured-window accumulators (steps, peaks, breaker flag)
  /// so result() covers only the headline window.
  void reset_measurement();
  [[nodiscard]] ScenarioResult result() const;
  /// Append spec + result objects to an open JSON object (bench payload).
  void append_report_json(obs::JsonWriter& json) const;

 private:
  void build();
  void step_fleet(SimDuration dt);
  void fleet_start_virus();
  void fleet_stop_virus();
  /// Aggregate RAPL sample (W) across fleet monitors; unprimed/masked
  /// monitors contribute 0.
  [[nodiscard]] double fleet_sample_w(SimDuration window);
  /// Measurement-phase event drain.
  void drain_event_stream_();
  /// The one run loop behind run_steps/run_for/run_until: `full_steps`
  /// steps of `dt`, then one partial step of `tail` when it is nonzero.
  void run_loop_(std::uint64_t full_steps, SimDuration dt, SimDuration tail,
                 const StepHook& hook);

  ScenarioSpec spec_;
  std::unique_ptr<cloud::Datacenter> dc_;
  std::unique_ptr<cloud::CloudProvider> provider_;
  std::unique_ptr<defense::PowerNamespace> power_ns_;
  std::unique_ptr<coresidence::TimerImplantDetector> verifier_;
  attack::OrchestratorResult acquisition_;

  std::vector<std::shared_ptr<container::Container>> instances_;
  std::vector<int> instance_server_;
  std::vector<std::string> provider_instance_ids_;
  std::vector<std::unique_ptr<attack::PowerAttacker>> attackers_;
  std::vector<std::unique_ptr<attack::RaplMonitor>> monitors_;
  bool fleet_deployed_ = false;
  FleetSpec::Control control_ = FleetSpec::Control::kIdle;

  // Coordinated-crest state (Fig 3 synergistic window).
  double high_water_w_ = 0.0;
  bool crest_attacking_ = false;
  SimTime crest_spike_end_ = 0;
  SimTime crest_cooldown_until_ = 0;
  int crest_spikes_ = 0;
  double crest_attack_seconds_ = 0.0;
  double crest_monitor_seconds_ = 0.0;

  // Measured-window accumulators (reset_measurement clears these).
  std::uint64_t steps_ = 0;
  double sim_seconds_ = 0.0;
  double peak_total_w_ = 0.0;
  double peak_rack_w_ = 0.0;
  bool breaker_tripped_ = false;

  // Event-stream consumers (enable_event_stream).
  bool drain_events_ = false;
  std::uint64_t events_digest_ = 0;  ///< seeded in enable_event_stream
  std::uint64_t events_drained_ = 0;

  // Leak-scan validator (leak_scan_probe), kept across probes so every
  // probe reads through the same probe container. Declared last so
  // it is destroyed first: its destructor tears down the retained probe
  // container, which needs the servers above still alive.
  std::unique_ptr<leakage::CrossValidator> scan_validator_;
};

}  // namespace cleaks::sim
