#include "defense/trainer.h"

#include "obs/metrics.h"

namespace cleaks::defense {
namespace {

constexpr SimDuration kSampleInterval = kSecond;

// Trainer telemetry: sampling schedules are sim-driven and the fault
// schedule is a pure function of sim time, so the counts are Scope::kSim.
struct TrainerMetrics {
  obs::Counter& samples = obs::Registry::global().counter(
      "defense_training_samples_total", "calibration samples collected");
  obs::Counter& samples_skipped = obs::Registry::global().counter(
      "defense_training_samples_skipped_total",
      "calibration windows dropped for perf multiplexing dropout");

  static TrainerMetrics& get() {
    static TrainerMetrics metrics;
    return metrics;
  }
};

}  // namespace

HostCounters read_host_counters(const kernel::Host& host) {
  HostCounters counters;
  for (const auto& cgroup : host.cgroups().all()) {
    const auto perf = kernel::PerfEventSubsystem::read(*cgroup);
    counters.perf.instructions += static_cast<double>(perf.instructions);
    counters.perf.cache_misses += static_cast<double>(perf.cache_misses);
    counters.perf.branch_misses += static_cast<double>(perf.branch_misses);
    counters.perf.cycles += static_cast<double>(perf.cycles);
  }
  for (const auto& pkg : host.rapl()) {
    counters.core_j += pkg.core().lifetime_energy_j();
    counters.dram_j += pkg.dram().lifetime_energy_j();
    counters.package_j += pkg.package().lifetime_energy_j();
  }
  return counters;
}

TrainingSample delta_sample(const HostCounters& before,
                            const HostCounters& after, double seconds) {
  TrainingSample sample;
  sample.perf.instructions =
      after.perf.instructions - before.perf.instructions;
  sample.perf.cache_misses =
      after.perf.cache_misses - before.perf.cache_misses;
  sample.perf.branch_misses =
      after.perf.branch_misses - before.perf.branch_misses;
  sample.perf.cycles = after.perf.cycles - before.perf.cycles;
  sample.perf.seconds = seconds;
  sample.core_j = after.core_j - before.core_j;
  sample.dram_j = after.dram_j - before.dram_j;
  sample.package_j = after.package_j - before.package_j;
  return sample;
}

std::vector<TrainingSample> collect_training_samples(
    kernel::Host& host, const std::vector<workload::Profile>& profiles,
    TrainerOptions options) {
  auto& root = *host.cgroups().root();
  const bool had_events = kernel::PerfEventSubsystem::has_events(root);
  if (!had_events) {
    host.perf().create_cgroup_events(root, host.spec().num_cores);
  }

  std::vector<TrainingSample> samples;
  for (const auto& profile : profiles) {
    for (double duty : options.duty_levels) {
      std::vector<kernel::HostPid> pids;
      for (int copy = 0; copy < options.copies; ++copy) {
        kernel::Host::SpawnOptions spawn;
        spawn.comm = profile.name + "-train";
        spawn.behavior = profile.behavior;
        spawn.behavior.duty_cycle = duty;
        pids.push_back(host.spawn_task(spawn)->host_pid);
      }
      host.advance(kSecond);  // warm up past the spawn transient
      auto before = read_host_counters(host);
      for (int sample_index = 0; sample_index < options.samples_per_level;
           ++sample_index) {
        host.advance(kSampleInterval);
        const auto after = read_host_counters(host);
        // Multiplexing dropout check: a real collector sees
        // time_running < time_enabled for this window. Scaling the counts
        // up would fold the dropout noise into the regression and bias
        // the fit, so the poisoned window is skipped outright — the delta
        // baseline still advances, keeping later windows contiguous.
        const double retention =
            options.faults != nullptr
                ? options.faults->perf_retention(host.now())
                : 1.0;
        if (retention < 1.0) {
          TrainerMetrics::get().samples_skipped.inc();
          before = after;
          continue;
        }
        TrainerMetrics::get().samples.inc();
        samples.push_back(
            delta_sample(before, after, to_seconds(kSampleInterval)));
        before = after;
      }
      for (auto pid : pids) host.kill_task(pid);
    }
  }
  if (!had_events) host.perf().destroy_cgroup_events(root);
  return samples;
}

Result<PowerModel> train_default_model(std::uint64_t seed) {
  kernel::Host host("trainer", hw::testbed_i7_6700(), seed);
  host.set_tick_duration(100 * kMillisecond);
  const auto samples =
      collect_training_samples(host, workload::training_set());
  PowerModel model;
  const Status status = model.train(samples);
  if (!status.is_ok()) return status;
  return model;
}

}  // namespace cleaks::defense
