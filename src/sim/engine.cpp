#include "sim/engine.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "leakage/channels.h"
#include "leakage/detector.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/stream.h"
#include "workload/profiles.h"

namespace cleaks::sim {
namespace {

// Host ticks of the warmup fast-forward and of the measured phase after it.
constexpr SimDuration kWarmupTick = 5 * kSecond;
constexpr SimDuration kMeasuredTick = kSecond;

// Fig 3's coordinated crest trigger: a high-water mark over the aggregate
// RAPL sample decays by kCrestDecay per step, and the whole fleet fires
// when a sample comes within the 0.5% band below it — at most
// kCrestMaxSpikes times, each for kCrestSpike, kCrestCooldown apart.
constexpr double kCrestDecay = 0.99999;
constexpr double kCrestTriggerRatio = 0.995;
constexpr int kCrestMaxSpikes = 2;
constexpr SimDuration kCrestSpike = 15 * kSecond;
constexpr SimDuration kCrestCooldown = 600 * kSecond;

// Engine telemetry rides the same Scope::kSim registry as the layers it
// orchestrates: step counts depend only on the scenario, never on lanes.
struct SimMetrics {
  obs::Counter& scenarios = obs::Registry::global().counter(
      "sim_scenarios_built_total", "SimEngine worlds constructed from specs");
  obs::Counter& steps = obs::Registry::global().counter(
      "sim_engine_steps_total", "SimEngine::step invocations");
  obs::Counter& epochs = obs::Registry::global().counter(
      "sim_engine_epochs_total", "completed run_* phases");
  obs::Counter& crest_triggers = obs::Registry::global().counter(
      "sim_crest_triggers_total", "coordinated fleet-wide spike launches");

  static SimMetrics& get() {
    static SimMetrics metrics;
    return metrics;
  }
};

// run_for and run_until divide by the step length, and a zero step never
// advances the clock.
void require_step_length(SimDuration dt) {
  if (dt == 0) throw std::invalid_argument("SimEngine: zero step length");
}

}  // namespace

SimEngine::SimEngine(ScenarioSpec spec) : spec_(std::move(spec)) { build(); }

SimEngine::~SimEngine() = default;

void SimEngine::build() {
  // 1. Facility.
  dc_ = std::make_unique<cloud::Datacenter>(spec_.datacenter);
  if (spec_.provider) {
    provider_ = std::make_unique<cloud::CloudProvider>(
        *dc_, spec_.provider->seed, cloud::BillingRates{},
        spec_.provider->placement);
  }
  if (spec_.host_tick != 0) set_host_tick(spec_.host_tick);

  // 1b. Fault injector, before any stepping so warmup reads see the same
  // schedule as the measured window. Installing it draws no RNG and
  // renders nothing: an empty plan leaves the world bit-identical.
  if (!spec_.faults.empty()) {
    fault_injector_ = std::make_unique<faults::FaultInjector>(spec_.faults);
    for (int i = 0; i < num_servers(); ++i) {
      server(i).fs().set_fault_injector(fault_injector_.get());
    }
  }

  // 2. Warmup (the deduplicated fast-forward; see WarmupSpec).
  if (spec_.warmup) {
    set_host_tick(kWarmupTick);
    run_until(spec_.warmup->until, kWarmupStep);
    set_host_tick(kMeasuredTick);
  }

  // 3. Background tenants, then the fleet.
  if (provider_ && spec_.provider->background_tenants > 0) {
    for (int i = 0; i < spec_.provider->background_tenants; ++i) {
      provider_->launch("background-" + std::to_string(i));
    }
  }
  if (spec_.fleet.deploy_on_build) deploy_fleet();

  // 4. Defense. The namespace keeps the runtime reference it is built
  // with, so it is built here: runtime() settles server 0, which the
  // warmup may have parked.
  if (spec_.defense.model) {
    power_ns_ = std::make_unique<defense::PowerNamespace>(
        server(0).runtime(), *spec_.defense.model);
    if (spec_.defense.enable) power_ns_->enable();
  }

  control_ = spec_.fleet.control;
  SimMetrics::get().scenarios.inc();
}

void SimEngine::set_host_tick(SimDuration tick) {
  for (int i = 0; i < num_servers(); ++i) {
    server(i).host().set_tick_duration(tick);
  }
}

void SimEngine::deploy_fleet() {
  if (fleet_deployed_ || spec_.fleet.placement == FleetSpec::Placement::kNone) {
    return;
  }
  fleet_deployed_ = true;
  const FleetSpec& f = spec_.fleet;
  const container::ContainerConfig cc =
      f.container.value_or(container::ContainerConfig{});

  auto attach = [&](const std::shared_ptr<container::Container>& instance,
                    int server_index) {
    instances_.push_back(instance);
    instance_server_.push_back(server_index);
    if (f.attackers) {
      attackers_.push_back(
          std::make_unique<attack::PowerAttacker>(*instance, f.attack));
    }
    if (f.monitors) {
      monitors_.push_back(std::make_unique<attack::RaplMonitor>(*instance));
    }
  };

  switch (f.placement) {
    case FleetSpec::Placement::kNone:
      break;
    case FleetSpec::Placement::kOnePerServer:
      for (int i = 0; i < num_servers(); ++i) {
        attach(server(i).runtime().create(cc), i);
      }
      break;
    case FleetSpec::Placement::kDirect:
      for (int i = 0; i < f.count; ++i) {
        attach(server(0).runtime().create(cc), 0);
      }
      break;
    case FleetSpec::Placement::kProviderLaunch:
      for (int i = 0; i < f.count; ++i) {
        auto instance = f.container ? provider_->launch(f.tenant, cc)
                                    : provider_->launch(f.tenant);
        provider_instance_ids_.push_back(instance->instance_id);
        attach(instance->handle, provider_->server_of(instance->instance_id));
      }
      break;
    case FleetSpec::Placement::kOrchestrated: {
      verifier_ = std::make_unique<coresidence::TimerImplantDetector>();
      attack::CoResidenceOrchestrator orchestrator(*provider_, *verifier_);
      acquisition_ = orchestrator.acquire(f.tenant, f.count, f.max_launches);
      for (const auto& instance : acquisition_.instances) {
        provider_instance_ids_.push_back(instance->instance_id);
        attach(instance->handle, provider_->server_of(instance->instance_id));
      }
      break;
    }
  }
}

void SimEngine::destroy_fleet() {
  // Attackers/monitors hold raw pointers into the containers — drop them
  // before the containers go away.
  attackers_.clear();
  monitors_.clear();
  if (!provider_instance_ids_.empty()) {
    for (const auto& id : provider_instance_ids_) provider_->terminate(id);
  } else {
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      server(instance_server_[i]).runtime().destroy(instances_[i]->id());
    }
  }
  instances_.clear();
  instance_server_.clear();
  provider_instance_ids_.clear();
  fleet_deployed_ = false;
}

void SimEngine::fleet_run(const std::string& comm,
                          const kernel::TaskBehavior& behavior,
                          int copies_per_instance) {
  for (const auto& instance : instances_) {
    for (int c = 0; c < copies_per_instance; ++c) {
      instance->run(comm, behavior);
    }
  }
}

void SimEngine::fleet_start_virus() {
  for (auto& attacker : attackers_) attacker->start_virus();
}

void SimEngine::fleet_stop_virus() {
  for (auto& attacker : attackers_) attacker->stop_virus();
}

double SimEngine::fleet_sample_w(SimDuration window) {
  double total = 0.0;
  for (auto& monitor : monitors_) {
    total += monitor->sample_w(window).value_or(0.0);
  }
  return total;
}

double SimEngine::fleet_attack_seconds() const {
  double total = crest_attack_seconds_;
  for (const auto& attacker : attackers_) {
    total += attacker->stats().attack_seconds;
  }
  return total;
}

double SimEngine::fleet_monitor_seconds() const {
  double total = crest_monitor_seconds_;
  for (const auto& attacker : attackers_) {
    total += attacker->stats().monitor_seconds;
  }
  return total;
}

void SimEngine::step_fleet(SimDuration dt) {
  switch (control_) {
    case FleetSpec::Control::kIdle:
      break;
    case FleetSpec::Control::kAutonomous:
      for (auto& attacker : attackers_) attacker->step(now(), dt);
      break;
    case FleetSpec::Control::kMonitor:
      high_water_w_ = std::max(high_water_w_ * kCrestDecay, fleet_sample_w(dt));
      crest_monitor_seconds_ += to_seconds(dt);
      break;
    case FleetSpec::Control::kCoordinated: {
      const double sample = fleet_sample_w(dt);
      if (crest_attacking_) {
        if (now() >= crest_spike_end_) {
          fleet_stop_virus();
          crest_attacking_ = false;
          crest_cooldown_until_ = now() + kCrestCooldown;
        }
        // The fleet burned CPU this whole interval (including the step
        // on which the spike ends).
        crest_attack_seconds_ += fleet_size() * to_seconds(dt);
      } else {
        high_water_w_ = std::max(high_water_w_ * kCrestDecay, sample);
        crest_monitor_seconds_ += to_seconds(dt);
        if (now() >= crest_cooldown_until_ &&
            crest_spikes_ < kCrestMaxSpikes &&
            sample >= high_water_w_ * kCrestTriggerRatio) {
          fleet_start_virus();
          crest_attacking_ = true;
          crest_spike_end_ = now() + kCrestSpike;
          ++crest_spikes_;
          SimMetrics::get().crest_triggers.inc();
        }
      }
      break;
    }
  }
}

void SimEngine::step(SimDuration dt) {
  // Fault boundary first: a forced wrap parks every RAPL counter at the
  // wrap edge so this step's energy carries it over — the sampling-gap
  // glitch consumers must survive. Drawn on fault_step_, which (unlike
  // steps_) never resets, so the schedule is spec-pure.
  if (fault_injector_ != nullptr &&
      fault_injector_->rapl_wrap_at_step(fault_step_, now())) {
    for (int i = 0; i < num_servers(); ++i) {
      for (auto& pkg : server(i).host().mutable_rapl()) {
        pkg.package().force_wrap();
        pkg.core().force_wrap();
        pkg.dram().force_wrap();
      }
    }
  }
  ++fault_step_;

  // Physics first: the provider's step meters billing around the
  // datacenter step.
  if (provider_) {
    provider_->step(dt);
  } else {
    dc_->step(dt);
  }

  step_fleet(dt);

  peak_total_w_ = std::max(peak_total_w_, total_power_w());
  for (int rack = 0; rack < spec_.datacenter.num_racks; ++rack) {
    peak_rack_w_ = std::max(peak_rack_w_, dc_->rack_power_w(rack));
  }
  if (dc_->any_breaker_tripped()) breaker_tripped_ = true;
  drain_event_stream_();

  ++steps_;
  sim_seconds_ += to_seconds(dt);
  SimMetrics::get().steps.inc();
}

void SimEngine::drain_event_stream_() {
  // Measurement-phase drain: the bus is quiescent here (the parallel
  // server step joined above), so the merge sees every lane's ring whole.
  // Draining every step keeps the rings far from wrapping, which is what
  // makes the Scope::kSim drop counter lane-count-independent (it stays 0).
  if (drain_events_ ||
      (obs::EventBus::global().enabled() &&
       obs::FlightRecorder::global().enabled())) {
    const std::vector<obs::Event> batch = obs::EventBus::global().drain();
    events_drained_ += batch.size();
    events_digest_ = obs::EventBus::digest(batch, events_digest_);
    auto& recorder = obs::FlightRecorder::global();
    if (recorder.enabled()) recorder.feed(batch);
  }
}

void SimEngine::enable_event_stream() {
  obs::EventBus::global().set_enabled(true);
  drain_events_ = true;
  events_digest_ = kDigestSeed;
}

void SimEngine::run_loop_(std::uint64_t full_steps, SimDuration dt,
                          SimDuration tail, const StepHook& hook) {
  // Every step advances the clock by exactly its length (hooks may not
  // step), so a step count fixed up front serves all three run_*
  // contracts.
  const auto step_observed = [&](std::uint64_t i, SimDuration length) {
    step(length);
    if (!hook) return;
    const StepContext ctx{static_cast<int>(i), now(), total_power_w()};
    hook(*this, ctx);
  };
  for (std::uint64_t i = 0; i < full_steps; ++i) step_observed(i, dt);
  if (tail > 0) step_observed(full_steps, tail);
  SimMetrics::get().epochs.inc();
}

void SimEngine::run_steps(int steps, SimDuration dt, const StepHook& hook) {
  require_step_length(dt);
  run_loop_(steps > 0 ? static_cast<std::uint64_t>(steps) : 0, dt, 0, hook);
}

void SimEngine::run_for(SimDuration total, SimDuration dt,
                        const StepHook& hook) {
  // Contract: advance the clock by exactly `total`. A total that is not a
  // multiple of `dt` ends with one final partial step of the remainder
  // (the old truncation silently under-ran; tests/sim_test.cpp pins this).
  require_step_length(dt);
  run_loop_(total / dt, dt, total % dt, hook);
}

void SimEngine::run_until(SimTime target, SimDuration dt,
                          const StepHook& hook) {
  // ceil(remaining / dt) steps; the last one may overshoot `target`.
  require_step_length(dt);
  const SimTime start = now();
  run_loop_(target > start ? (target - start - 1) / dt + 1 : 0, dt, 0, hook);
}

double SimEngine::total_power_w() const { return dc_->total_power_w(); }

double SimEngine::rack_power_w(int rack) const {
  return dc_->rack_power_w(rack);
}

double SimEngine::server_power_w(int index) {
  return server(index).power_w();
}

SimEngine::BillingProbe SimEngine::billing_probe(
    const std::string& tenant) const {
  BillingProbe probe;
  if (provider_) {
    probe.cost_usd = provider_->billing().total_cost(tenant);
    probe.cpu_hours = provider_->billing().cpu_hours(tenant);
  }
  return probe;
}

SimEngine::LeakScanProbe SimEngine::leak_scan_probe(
    const container::ContainerConfig& probe_config) {
  LeakScanProbe result;
  cloud::Server& srv = server(0);
  if (scan_validator_ == nullptr) {
    leakage::ScanOptions options;
    options.probe_config = probe_config;
    scan_validator_ =
        std::make_unique<leakage::CrossValidator>(srv, std::move(options));
  }
  // One full scan covers every channel path at once.
  const std::vector<leakage::FileFinding> findings = scan_validator_->scan();
  std::map<std::string_view, leakage::LeakClass> by_path;
  for (const auto& finding : findings) {
    by_path.emplace(finding.path, finding.cls);
  }
  for (const auto& channel : leakage::table1_channels()) {
    for (const auto& path : leakage::channel_paths(channel, srv.fs())) {
      ++result.total_paths;
      const auto it = by_path.find(path);
      const leakage::LeakClass cls =
          it == by_path.end() ? leakage::LeakClass::kAbsent : it->second;
      if (cls == leakage::LeakClass::kLeaking) ++result.leaking;
      if (cls != leakage::LeakClass::kMasked &&
          cls != leakage::LeakClass::kAbsent) {
        ++result.functional;
      }
    }
  }
  return result;
}

int SimEngine::coresidence_probe(const container::ContainerConfig& probe_config,
                                 int* total) {
  cloud::Server& srv = server(0);
  auto a = srv.runtime().create(probe_config);
  auto b = srv.runtime().create(probe_config);
  coresidence::ProbeEnv env;
  env.advance = [&srv](SimDuration dt) { srv.step(dt); };
  int coresident = 0;
  int n = 0;
  for (const auto& detector : coresidence::all_detectors()) {
    ++n;
    if (detector->verify(*a, *b, env) == coresidence::Verdict::kCoResident) {
      ++coresident;
    }
  }
  srv.runtime().destroy(a->id());
  srv.runtime().destroy(b->id());
  if (total) *total = n;
  return coresident;
}

bool SimEngine::crest_signal_probe() {
  cloud::Server& srv = server(0);
  auto observer = srv.runtime().create({});
  attack::RaplMonitor monitor(*observer);
  monitor.sample_w(kSecond);  // prime
  srv.step(2 * kSecond);
  const auto quiet = monitor.sample_w(2 * kSecond);

  const workload::Profile virus = workload::power_virus();
  std::vector<kernel::HostPid> pids;
  for (int i = 0; i < 8; ++i) {
    pids.push_back(
        srv.host()
            .spawn_task({.comm = "surge", .behavior = virus.behavior})
            ->host_pid);
  }
  srv.step(3 * kSecond);
  const auto loud = monitor.sample_w(3 * kSecond);
  for (const auto pid : pids) srv.host().kill_task(pid);
  srv.runtime().destroy(observer->id());
  return quiet.has_value() && loud.has_value() && *loud > *quiet * 1.5;
}

void SimEngine::reset_measurement() {
  steps_ = 0;
  sim_seconds_ = 0.0;
  peak_total_w_ = 0.0;
  peak_rack_w_ = 0.0;
  breaker_tripped_ = false;
}

ScenarioResult SimEngine::result() const {
  ScenarioResult r;
  r.scenario = spec_.name;
  r.num_servers = num_servers();
  r.seed = spec_.datacenter.seed;
  r.end_s = to_seconds(now());
  r.steps = steps_;
  r.sim_seconds = sim_seconds_;
  r.peak_total_w = peak_total_w_;
  r.peak_rack_w = peak_rack_w_;
  r.breaker_tripped = breaker_tripped_;
  r.fleet_size = fleet_size();
  int attacker_spikes = 0;
  for (const auto& attacker : attackers_) {
    attacker_spikes += attacker->stats().spikes_launched;
  }
  r.spikes = crest_spikes_ > 0 ? crest_spikes_ : attacker_spikes;
  r.attack_seconds = fleet_attack_seconds();
  r.monitor_seconds = fleet_monitor_seconds();
  r.launches = acquisition_.launches;
  r.verifications = acquisition_.verifications;
  r.acquisition_success = acquisition_.success;
  return r;
}

void SimEngine::append_report_json(obs::JsonWriter& json) const {
  append_spec_json(spec_, json);
  result().append_json(json);
}

}  // namespace cleaks::sim
