// RaplMonitor: the attacker's in-container power monitor (§IV-A).
//
// Monitoring costs almost zero CPU: the tenant just reads
// /sys/class/powercap/.../energy_uj periodically and differentiates the
// counter — getting the *whole host's* power because the channel is not
// namespaced. With the power-based namespace enabled, the same reads
// return only the container's own consumption and the attack signal
// disappears (§VI-B).
#pragma once

#include <optional>

#include "container/container.h"
#include "hw/rapl.h"
#include "util/sim_time.h"

namespace cleaks::attack {

class RaplMonitor {
 public:
  explicit RaplMonitor(const container::Container& target)
      : target_(&target) {}

  /// Power (W) averaged over the interval since the previous successful
  /// sample. First call primes the counter and returns nullopt; nullopt is
  /// also returned when the channel is masked or the hardware is absent.
  ///
  /// Graceful degradation: a *transient* read failure (EBUSY) or an
  /// implausibly large delta (a counter-wrap glitch in the sampling gap)
  /// does not poison the crest estimate — the monitor holds and returns
  /// its last good wattage, re-primes, and flags degraded() until the
  /// next clean sample. Masking/absence still returns nullopt: when the
  /// defense removes the channel, the signal must vanish, not persist.
  std::optional<double> sample_w(SimDuration since_last);

  /// True while sample_w is serving the held last-good estimate.
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }

  /// Deltas above this are treated as wrap glitches, not power. Default
  /// is far beyond any facility the simulator can build.
  void set_max_plausible_w(double watts) noexcept {
    max_plausible_w_ = watts;
  }

 private:
  const container::Container* target_;
  std::vector<std::uint64_t> last_uj_;
  bool primed_ = false;
  std::optional<double> last_good_w_;
  bool degraded_ = false;
  double max_plausible_w_ = 1e6;
};

/// §VII-A: synergistic power attacks without the RAPL channel.
///
/// On hosts without RAPL (or with the powercap tree masked), an advanced
/// attacker approximates the power state from the resource-utilization
/// channels that remain open: /proc/stat's busy-jiffy rate is a direct
/// proxy for the dynamic power term. sample_utilization() returns host CPU
/// utilization in [0,1]; crest detection works on it exactly as it does on
/// watts. The paper's conclusion follows: system-wide performance
/// statistics must be masked too.
class UtilizationMonitor {
 public:
  explicit UtilizationMonitor(const container::Container& target)
      : target_(&target) {}

  /// Host CPU utilization over the interval since the previous successful
  /// sample; nullopt on the priming call or when /proc/stat is masked.
  std::optional<double> sample_utilization(SimDuration since_last);

 private:
  struct Jiffies {
    double busy = 0.0;
    double idle = 0.0;
  };
  std::optional<Jiffies> read_jiffies() const;

  const container::Container* target_;
  Jiffies last_;
  bool primed_ = false;
};

}  // namespace cleaks::attack
