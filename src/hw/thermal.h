// Digital Temperature Sensor (coretemp) model.
//
// Backs /sys/devices/platform/coretemp.#/hwmon/hwmon#/temp#_input (Table II
// lists it as a V+M co-residence channel: a tenant can bind a hot workload
// to a core from one container and watch the temperature from another).
// First-order thermal RC: each core's temperature relaxes toward
// ambient + theta * core_power with time constant tau. A ticking host
// steps each core with ThermalModel::step_core; an idle coast applies the
// closed form instead (hw/idle_coast.h thermal_coast_retention).
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace cleaks::hw {

inline constexpr double kAmbientC = 38.0;  ///< in-chassis ambient (deg C)
/// Steady-state rise per watt of core power.
inline constexpr double kThetaCPerW = 2.2;
inline constexpr double kThermalTauSeconds = 8.0;  ///< thermal time constant

inline double thermal_decay(double dt_seconds) noexcept {
  return 1.0 - std::exp(-dt_seconds / kThermalTauSeconds);
}

class ThermalModel {
 public:
  explicit ThermalModel(int num_cores);

  /// Advance one core by one tick: relax toward ambient + theta *
  /// `power_w`, where `decay` is thermal_decay(tick seconds). Host steps
  /// each core inside its one pass over the cores, with the decay cached
  /// per distinct tick length (identical dt ⇒ identical exp ⇒ identical
  /// temperatures).
  void step_core(std::size_t core, double power_w, double decay) noexcept {
    const double target = kAmbientC + kThetaCPerW * power_w;
    temps_c_[core] += (target - temps_c_[core]) * decay;
  }

  /// Mutable per-core temperature storage. The idle-coast integrator
  /// overwrites temperatures from its anchor snapshot through this.
  [[nodiscard]] double* mutable_temps() noexcept { return temps_c_.data(); }

  /// Temperature of a core in millidegrees C, as temp#_input reports it.
  [[nodiscard]] std::int64_t temp_millic(int core) const;
  [[nodiscard]] double temp_c(int core) const;
  [[nodiscard]] int num_cores() const noexcept {
    return static_cast<int>(temps_c_.size());
  }

 private:
  std::vector<double> temps_c_;
};

}  // namespace cleaks::hw
