#include "cloud/breaker.h"

#include <algorithm>
#include <cmath>

namespace cleaks::cloud {
namespace {

/// Thermal element cool-down time constant when below rating (s).
constexpr double kCoolingTauS = 120.0;

}  // namespace

bool CircuitBreaker::observe(double power_w, SimDuration dt) {
  max_power_w_ = std::max(max_power_w_, power_w);
  if (tripped_) return false;
  const double dt_sec = to_seconds(dt);
  if (power_w >= spec_.rated_w * spec_.instant_trip_factor) {
    tripped_ = true;  // magnetic element
    return true;
  }
  const double overload = power_w / spec_.rated_w - 1.0;
  if (overload > 0.0) {
    thermal_ += overload * dt_sec;
    if (thermal_ >= spec_.thermal_capacity) {
      tripped_ = true;
      return true;
    }
  } else {
    thermal_ *= std::exp(-dt_sec / kCoolingTauS);
  }
  return false;
}

}  // namespace cleaks::cloud
