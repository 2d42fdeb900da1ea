// Branch circuit breaker with an inverse-time (thermal-magnetic) trip curve.
//
// §II-C: "The tripping condition of a circuit breaker depends on the
// strength and duration of a power spike." We model both elements:
// an instantaneous magnetic trip at a large multiple of the rating, and a
// thermal element that integrates overload over time — a small overload
// takes minutes, a heavy one seconds.
#pragma once

#include "util/sim_time.h"

namespace cleaks::cloud {

struct BreakerSpec {
  double rated_w = 1300.0;          ///< continuous rating
  double instant_trip_factor = 1.6; ///< magnetic trip at rated*factor
  /// Thermal capacity in (overload-fraction x seconds): e.g. 12 means a
  /// 20% overload trips after 60 s, a 120% overload after 10 s.
  double thermal_capacity = 12.0;
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerSpec spec = BreakerSpec{}) : spec_(spec) {}

  /// Feed one interval of aggregate power. Returns true if this
  /// observation tripped the breaker.
  bool observe(double power_w, SimDuration dt);

  [[nodiscard]] bool tripped() const noexcept { return tripped_; }
  [[nodiscard]] double thermal_state() const noexcept { return thermal_; }
  [[nodiscard]] const BreakerSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] double max_power_seen_w() const noexcept { return max_power_w_; }

  /// Manual reset after an outage.
  void reset() noexcept {
    tripped_ = false;
    thermal_ = 0.0;
  }

 private:
  BreakerSpec spec_;
  double thermal_ = 0.0;
  double max_power_w_ = 0.0;
  bool tripped_ = false;
};

}  // namespace cleaks::cloud
