// Covert channels over the leaked host-state files (§III-C: "Those entries
// could be exploited by advanced attackers as covert channels to transmit
// signals").
//
// A transmitter container encodes bits by toggling resource consumption per
// time slot; a receiver container decodes them from a leaked channel —
// power (RAPL energy_uj), temperature (coretemp) or the CPU utilization in
// /proc/stat. CovertChannelBenchmark sends random payloads and reports the
// measured bit-error rate and the resulting channel capacity
// C = rate * (1 - H2(ber)) in bits/s, the figure of merit used by the
// thermal covert-channel literature the paper cites.
#pragma once

#include <string>
#include <vector>

#include "container/container.h"
#include "coresidence/detector.h"
#include "util/rng.h"

namespace cleaks::coresidence {

enum class CovertMedium { kPower, kThermal, kUtilization };

std::string to_string(CovertMedium medium);

struct CovertConfig {
  CovertMedium medium = CovertMedium::kPower;
  /// Slot length per bit. Thermal needs seconds (die time constant);
  /// power and utilization work at 1-2 s.
  SimDuration slot = 2 * kSecond;
  /// Inter-slot guard time letting the medium relax toward baseline.
  SimDuration guard = 0;
};

struct CovertResult {
  int bits_sent = 0;
  int bit_errors = 0;
  double seconds_used = 0.0;

  [[nodiscard]] double bit_error_rate() const {
    return bits_sent > 0 ? static_cast<double>(bit_errors) / bits_sent : 1.0;
  }
  [[nodiscard]] double raw_rate_bps() const {
    return seconds_used > 0 ? bits_sent / seconds_used : 0.0;
  }
  /// Shannon capacity of the binary symmetric channel this link realizes.
  [[nodiscard]] double capacity_bps() const;
};

class CovertChannelBenchmark {
 public:
  /// `tx` and `rx` are containers (same or different hosts — a cross-host
  /// pair measures the floor, which should be ~0 capacity).
  CovertChannelBenchmark(container::Container& tx, container::Container& rx,
                         ProbeEnv env, CovertConfig config = CovertConfig{});

  /// Transmit `bits` random bits and decode them; returns the tally.
  CovertResult run(int bits, std::uint64_t seed = 99);

 private:
  /// Read the receiver's current medium level; NaN when unavailable.
  [[nodiscard]] double read_level() const;

  container::Container* tx_;
  container::Container* rx_;
  ProbeEnv env_;
  CovertConfig config_;
};

}  // namespace cleaks::coresidence
