// Training-data collection for the power model (the Fig 6 / Fig 7
// experiment): run each training workload on the host at several intensity
// levels, sampling host-wide perf counters (via a root-cgroup perf_event
// set, as Perf does) against the RAPL energy counters once per second.
#pragma once

#include <vector>

#include "defense/power_model.h"
#include "kernel/host.h"
#include "workload/profiles.h"

namespace cleaks::defense {

struct TrainerOptions {
  /// Duty-cycle levels swept per workload.
  std::vector<double> duty_levels = {0.25, 0.5, 0.75, 1.0};
  /// Concurrent copies of the workload (cores exercised).
  int copies = 4;
  int samples_per_level = 12;
};

/// Snapshot helper: host-wide perf totals (root cgroup + every container
/// cgroup) and RAPL lifetime energy.
struct HostCounters {
  PerfDelta perf;  ///< absolute totals in the delta struct's fields
  double core_j = 0.0;
  double dram_j = 0.0;
  double package_j = 0.0;
};

HostCounters read_host_counters(const kernel::Host& host);

/// Delta of two snapshots taken `seconds` apart.
TrainingSample delta_sample(const HostCounters& before,
                            const HostCounters& after, double seconds);

/// Run the sweep and return all samples. Enables root-cgroup perf events
/// for the duration. The host should otherwise be quiet.
std::vector<TrainingSample> collect_training_samples(
    kernel::Host& host, const std::vector<workload::Profile>& profiles,
    TrainerOptions options = TrainerOptions{});

/// Convenience: collect on a scratch host and train a model.
Result<PowerModel> train_default_model(std::uint64_t seed = 1234);

}  // namespace cleaks::defense
