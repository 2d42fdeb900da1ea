#include "hw/thermal.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cleaks::hw {

ThermalModel::ThermalModel(int num_cores)
    : temps_c_(static_cast<std::size_t>(std::max(num_cores, 0)), kAmbientC) {}

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
