// Benign tenant load generator with diurnal, weekly and bursty structure.
//
// Fig 2 of the paper shows one week of whole-system power for eight cloud
// servers: drastic day-scale changes and a ~35% peak-to-trough range,
// against ~20-30% average utilization (Barroso et al.). This generator
// reproduces that shape: per-server target utilization =
//   base + diurnal sine + weekday factor + Ornstein-Uhlenbeck noise
//   + Poisson-arriving bursts,
// spread over worker tasks with heterogeneous tenant mixes.
#pragma once

#include <memory>
#include <vector>

#include "kernel/host.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "workload/profiles.h"

namespace cleaks::workload {

/// Per-server settings. The rest of the shape (day/night swing, weekend
/// factor, noise relaxation time, burst sizes and lengths) is fixed in
/// diurnal.cpp.
struct DiurnalParams {
  double base_utilization = 0.22;  ///< mean utilization (fraction of host)
  double noise_sigma = 0.06;       ///< OU noise stddev
  double bursts_per_day = 30.0;    ///< Poisson arrival rate of load bursts
  /// Phase offset so different servers peak at different times of day.
  double phase_days = 0.0;
};

class DiurnalLoadGenerator {
 public:
  /// Spawns one worker task per core on `host` (host-level tenants).
  /// The host must outlive the generator.
  DiurnalLoadGenerator(kernel::Host& host, std::uint64_t seed,
                       DiurnalParams params = DiurnalParams{});

  /// Re-target worker duty cycles for simulated instant `now`.
  /// Call once per control interval (e.g. every 30 s) before advancing.
  void apply(SimTime now);

  /// Current target utilization (fraction of the whole host), after
  /// clamping; exposed for tests.
  [[nodiscard]] double current_target() const noexcept { return target_; }

 private:
  [[nodiscard]] double demand_at(SimTime now);

  kernel::Host* host_;
  DiurnalParams params_;
  Rng rng_;
  std::vector<std::shared_ptr<kernel::Task>> workers_;
  double ou_state_ = 0.0;
  SimTime last_apply_ = 0;
  double target_ = 0.0;
  SimTime burst_until_ = 0;
  double burst_util_ = 0.0;
  SimTime next_burst_check_ = 0;
};

}  // namespace cleaks::workload
