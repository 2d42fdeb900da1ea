#include "coresidence/covert.h"

#include <cmath>
#include <limits>

#include "util/strings.h"
#include "workload/profiles.h"

namespace cleaks::coresidence {
namespace {

constexpr int kHogs = 4;  ///< hogs the transmitter runs for a 1-bit

}  // namespace

std::string to_string(CovertMedium medium) {
  switch (medium) {
    case CovertMedium::kPower:
      return "power(RAPL)";
    case CovertMedium::kThermal:
      return "thermal(coretemp)";
    case CovertMedium::kUtilization:
      return "utilization(/proc/stat)";
  }
  return "?";
}

double CovertResult::capacity_bps() const {
  const double p = std::min(0.5, bit_error_rate());
  double h2 = 0.0;
  if (p > 0.0 && p < 1.0) {
    h2 = -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
  }
  return raw_rate_bps() * (1.0 - h2);
}

CovertChannelBenchmark::CovertChannelBenchmark(container::Container& tx,
                                               container::Container& rx,
                                               ProbeEnv env,
                                               CovertConfig config)
    : tx_(&tx), rx_(&rx), env_(std::move(env)), config_(config) {}

double CovertChannelBenchmark::read_level() const {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  switch (config_.medium) {
    case CovertMedium::kPower: {
      const auto view =
          rx_->read_file("/sys/class/powercap/intel-rapl:0/energy_uj");
      return view.is_ok() ? parse_first_double(view.value()) : kNan;
    }
    case CovertMedium::kThermal: {
      double total = 0.0;
      for (int sensor = 2; sensor <= rx_->host().spec().num_cores + 1;
           ++sensor) {
        const auto view = rx_->read_file(strformat(
            "/sys/devices/platform/coretemp.0/hwmon/hwmon1/temp%d_input",
            sensor));
        if (!view.is_ok()) return kNan;
        total += parse_first_double(view.value());
      }
      return total;
    }
    case CovertMedium::kUtilization: {
      const auto view = rx_->read_file("/proc/stat");
      if (!view.is_ok()) return kNan;
      const auto lines = split_lines(view.value());
      if (lines.empty()) return kNan;
      const auto fields = extract_numbers(lines.front());
      if (fields.size() < 7) return kNan;
      return fields[0] + fields[1] + fields[2] + fields[5] + fields[6];
    }
  }
  return kNan;
}

CovertResult CovertChannelBenchmark::run(int bits, std::uint64_t seed) {
  CovertResult result;
  const auto virus = workload::power_virus();

  auto transmit_slot = [&](int bit) -> double {
    const double before = read_level();
    std::vector<kernel::HostPid> pids;
    if (bit == 1) {
      for (int hog = 0; hog < kHogs; ++hog) {
        pids.push_back(tx_->run("cc-tx", virus.behavior)->host_pid);
      }
    }
    env_.advance(config_.slot);
    const double after = read_level();
    for (auto pid : pids) tx_->kill(pid);
    if (config_.guard > 0) env_.advance(config_.guard);
    if (std::isnan(before) || std::isnan(after)) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return after - before;
  };

  // Training preamble: alternate known bits to learn the two delta levels.
  double one_level = 0.0;
  double zero_level = 0.0;
  constexpr int kPreamblePairs = 2;
  for (int pair = 0; pair < kPreamblePairs; ++pair) {
    const double d1 = transmit_slot(1);
    const double d0 = transmit_slot(0);
    if (std::isnan(d1) || std::isnan(d0)) {
      result.bits_sent = 0;
      result.bit_errors = 0;
      return result;  // medium unavailable: zero-capacity link
    }
    one_level += d1 / kPreamblePairs;
    zero_level += d0 / kPreamblePairs;
  }
  const double threshold = (one_level + zero_level) / 2.0;

  Rng rng(seed);
  for (int index = 0; index < bits; ++index) {
    const int bit = rng.bernoulli(0.5) ? 1 : 0;
    const double delta = transmit_slot(bit);
    const int decoded = delta > threshold ? 1 : 0;
    ++result.bits_sent;
    if (decoded != bit) ++result.bit_errors;
    result.seconds_used += to_seconds(config_.slot + config_.guard);
  }
  return result;
}

}  // namespace cleaks::coresidence
