#include "hw/thermal.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cleaks::hw {

ThermalModel::ThermalModel(int num_cores)
    : temps_c_(static_cast<std::size_t>(std::max(num_cores, 0)), kAmbientC) {}

void ThermalModel::advance(const std::vector<double>& core_power_w,
                           double dt_seconds) {
  if (dt_seconds <= 0.0) return;
  advance_with_decay(core_power_w.data(), core_power_w.size(),
                     thermal_decay(dt_seconds));
}

void ThermalModel::advance_with_decay(const double* core_power_w,
                                      std::size_t n, double decay) noexcept {
  for (std::size_t i = 0; i < temps_c_.size(); ++i) {
    step_core(i, i < n ? core_power_w[i] : 0.0, decay);
  }
}

std::int64_t ThermalModel::temp_millic(int core) const {
  return static_cast<std::int64_t>(std::lround(temp_c(core) * 1000.0));
}

double ThermalModel::temp_c(int core) const {
  if (core < 0 || static_cast<std::size_t>(core) >= temps_c_.size()) {
    throw std::out_of_range("ThermalModel: core index");
  }
  return temps_c_[static_cast<std::size_t>(core)];
}

}  // namespace cleaks::hw
