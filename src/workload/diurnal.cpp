#include "workload/diurnal.h"

#include <algorithm>
#include <cmath>

namespace cleaks::workload {
namespace {

constexpr double kDiurnalAmplitude = 0.13;  ///< day/night swing
constexpr double kWeekendFactor = 0.55;  ///< demand multiplier, days 5 and 6
constexpr double kNoiseTauS = 600.0;     ///< OU relaxation time
constexpr double kBurstMinUtil = 0.15;
constexpr double kBurstMaxUtil = 0.50;
constexpr SimDuration kBurstMinLen = 3 * kMinute;
constexpr SimDuration kBurstMaxLen = 40 * kMinute;

}  // namespace

DiurnalLoadGenerator::DiurnalLoadGenerator(kernel::Host& host,
                                           std::uint64_t seed,
                                           DiurnalParams params)
    : host_(&host), params_(params), rng_(seed) {
  const auto mixes = tenant_mixes();
  for (int core = 0; core < host.spec().num_cores; ++core) {
    const auto& mix = mixes[rng_.uniform_u64(0, mixes.size() - 1)];
    kernel::Host::SpawnOptions options;
    options.comm = mix.name + "-w" + std::to_string(core);
    options.behavior = mix.behavior;
    options.behavior.duty_cycle = 0.0;
    options.allowed_cpus = {core};
    workers_.push_back(host.spawn_task(options));
    workers_.back()->cpu = core;
  }
}

double DiurnalLoadGenerator::demand_at(SimTime now) {
  const double day_frac =
      std::fmod(static_cast<double>(now) / static_cast<double>(kDay) +
                    params_.phase_days,
                1.0);
  const int day_index =
      static_cast<int>(static_cast<double>(now) / static_cast<double>(kDay)) %
      7;

  // Diurnal: trough ~4am, peak mid-afternoon.
  double demand = params_.base_utilization +
                  kDiurnalAmplitude * std::sin(2.0 * M_PI * (day_frac - 0.40));
  if (day_index >= 5) demand *= kWeekendFactor;

  // Ornstein-Uhlenbeck noise, discretized over the interval since the
  // previous apply().
  const double dt = std::max(1.0, to_seconds(now - last_apply_));
  const double decay = std::exp(-dt / kNoiseTauS);
  const double diffusion =
      params_.noise_sigma * std::sqrt(1.0 - decay * decay);
  ou_state_ = ou_state_ * decay + rng_.gaussian(0.0, diffusion);
  demand += ou_state_;

  // Bursts: Poisson arrivals checked per interval.
  if (now >= next_burst_check_) {
    const double per_second = params_.bursts_per_day / to_seconds(kDay);
    if (rng_.bernoulli(std::min(1.0, per_second * dt))) {
      burst_until_ = now + rng_.uniform_u64(kBurstMinLen, kBurstMaxLen);
      burst_util_ = rng_.uniform(kBurstMinUtil, kBurstMaxUtil);
    }
    next_burst_check_ = now + 30 * kSecond;
  }
  if (now < burst_until_) demand += burst_util_;

  return std::clamp(demand, 0.02, 0.97);
}

void DiurnalLoadGenerator::apply(SimTime now) {
  target_ = demand_at(now);
  last_apply_ = now;
  // Spread the target over workers with mild imbalance so per-core
  // utilization (and temperature) differs like in real fleets.
  for (auto& worker : workers_) {
    const double jitter = std::clamp(rng_.gaussian(1.0, 0.15), 0.5, 1.5);
    const double duty = std::clamp(target_ * jitter, 0.0, 1.0);
    worker->behavior.duty_cycle = duty;
    // Working sets breathe with demand, so MemFree fluctuates the way a
    // loaded server's does (Table II relies on this variation).
    worker->behavior.rss_bytes =
        static_cast<std::uint64_t>((0.4 + duty) * (900ULL << 20));
  }
}

}  // namespace cleaks::workload
