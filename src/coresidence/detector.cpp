#include "coresidence/detector.h"

#include <cmath>
#include <optional>

#include "util/stats.h"
#include "util/strings.h"
#include "workload/profiles.h"

namespace cleaks::coresidence {
namespace {

constexpr const char* kRaplEnergyPath =
    "/sys/class/powercap/intel-rapl:0/energy_uj";

// Simultaneous uptime reads on one host agree within this many seconds,
// and their idle times within 32 times as much.
constexpr double kUptimeToleranceS = 1.5;
// MemFree trace: one sample per second, and the correlation that calls
// two traces one host.
constexpr int kMemTraceSamples = 60;
constexpr double kMemTraceMinCorrelation = 0.98;
// Covert-signal preamble lengths, in bits.
constexpr int kThermalSignalBits = 5;
constexpr int kPowerSignalBits = 8;

/// Read a path from both containers; returns false if either read failed
/// (masked channel, missing hardware) — detectors then answer inconclusive.
bool read_pair(container::Container& a, container::Container& b,
               const std::string& path, std::string& out_a,
               std::string& out_b) {
  const auto ra = a.read_file(path);
  const auto rb = b.read_file(path);
  if (!ra.is_ok() || !rb.is_ok()) return false;
  out_a = ra.value();
  out_b = rb.value();
  return true;
}

}  // namespace

std::string to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kCoResident:
      return "co-resident";
    case Verdict::kNotCoResident:
      return "not-co-resident";
    case Verdict::kInconclusive:
      return "inconclusive";
  }
  return "?";
}

Verdict BootIdDetector::verify(container::Container& a,
                               container::Container& b, const ProbeEnv&) {
  std::string id_a;
  std::string id_b;
  if (!read_pair(a, b, "/proc/sys/kernel/random/boot_id", id_a, id_b)) {
    return Verdict::kInconclusive;
  }
  return id_a == id_b ? Verdict::kCoResident : Verdict::kNotCoResident;
}

Verdict IfpriomapDetector::verify(container::Container& a,
                                  container::Container& b, const ProbeEnv&) {
  std::string map_a;
  std::string map_b;
  if (!read_pair(a, b, "/sys/fs/cgroup/net_prio/net_prio.ifpriomap", map_a,
                 map_b)) {
    return Verdict::kInconclusive;
  }
  return map_a == map_b ? Verdict::kCoResident : Verdict::kNotCoResident;
}

namespace {

Verdict implant_and_search(container::Container& a, container::Container& b,
                           const ProbeEnv& env, const std::string& path,
                           int named_timers) {
  const std::string signature =
      "probe" + a.host().fork_rng(a.id() + path).hex_string(10);
  kernel::TaskBehavior behavior;
  behavior.duty_cycle = 0.05;
  behavior.named_timers = named_timers;
  auto planted = a.run(signature, behavior);
  env.advance(kSecond);
  const auto view = b.read_file(path);
  Verdict verdict = Verdict::kInconclusive;
  if (view.is_ok()) {
    verdict = contains(view.value(), signature) ? Verdict::kCoResident
                                                : Verdict::kNotCoResident;
  }
  a.kill(planted->host_pid);
  env.advance(kSecond);
  return verdict;
}

}  // namespace

Verdict TimerImplantDetector::verify(container::Container& a,
                                     container::Container& b,
                                     const ProbeEnv& env) {
  return implant_and_search(a, b, env, "/proc/timer_list", /*named_timers=*/2);
}

Verdict SchedDebugImplantDetector::verify(container::Container& a,
                                          container::Container& b,
                                          const ProbeEnv& env) {
  return implant_and_search(a, b, env, "/proc/sched_debug", 0);
}

Verdict LocksImplantDetector::verify(container::Container& a,
                                     container::Container& b,
                                     const ProbeEnv& env) {
  // A acquires and releases a burst of file locks in each round; B counts
  // the host-wide lock lines before and after. Counting is robust to not
  // knowing A's host pids. Every round must show the step to conclude
  // co-residence (repetition filters out coincidental lock churn).
  constexpr int kRounds = 3;
  constexpr int kLocks = 5;
  auto count_locks = [&]() -> int {
    const auto view = b.read_file("/proc/locks");
    if (!view.is_ok()) return -1;
    return static_cast<int>(split_lines(view.value()).size());
  };
  int matches = 0;
  for (int round = 0; round < kRounds; ++round) {
    kernel::TaskBehavior behavior;
    behavior.duty_cycle = 0.01;
    behavior.file_locks = kLocks;
    auto holder = a.run("lockprobe", behavior);
    env.advance(kSecond);
    const int with_locks = count_locks();
    a.kill(holder->host_pid);
    env.advance(kSecond);
    const int without_locks = count_locks();
    if (with_locks < 0 || without_locks < 0) return Verdict::kInconclusive;
    if (with_locks - without_locks >= kLocks) ++matches;
  }
  return matches == kRounds ? Verdict::kCoResident : Verdict::kNotCoResident;
}

Verdict UptimeDetector::verify(container::Container& a,
                               container::Container& b, const ProbeEnv&) {
  std::string up_a;
  std::string up_b;
  if (!read_pair(a, b, "/proc/uptime", up_a, up_b)) {
    return Verdict::kInconclusive;
  }
  const auto nums_a = extract_numbers(up_a);
  const auto nums_b = extract_numbers(up_b);
  if (nums_a.size() < 2 || nums_b.size() < 2) return Verdict::kInconclusive;
  // Same host: both fields coincide (reads are simultaneous). Different
  // hosts: uptimes differ by hours-to-weeks. §IV-C: similar up time with
  // different idle time = different machines installed together.
  const bool same_up = std::fabs(nums_a[0] - nums_b[0]) <= kUptimeToleranceS;
  const bool same_idle =
      std::fabs(nums_a[1] - nums_b[1]) <= kUptimeToleranceS * 32.0;
  return same_up && same_idle ? Verdict::kCoResident
                              : Verdict::kNotCoResident;
}

Verdict EnergyCounterDetector::verify(container::Container& a,
                                      container::Container& b,
                                      const ProbeEnv& env) {
  // Two simultaneous reads one second apart: on the same host both the
  // counter values and their deltas coincide.
  std::string e_a0;
  std::string e_b0;
  if (!read_pair(a, b, kRaplEnergyPath, e_a0, e_b0)) {
    return Verdict::kInconclusive;
  }
  env.advance(kSecond);
  std::string e_a1;
  std::string e_b1;
  if (!read_pair(a, b, kRaplEnergyPath, e_a1, e_b1)) {
    return Verdict::kInconclusive;
  }
  const double a0 = parse_first_double(e_a0);
  const double b0 = parse_first_double(e_b0);
  const double a1 = parse_first_double(e_a1);
  const double delta = a1 - a0;  // roughly one second of host energy
  if (delta <= 0.0) return Verdict::kInconclusive;
  return std::fabs(a0 - b0) < 0.5 * delta ? Verdict::kCoResident
                                          : Verdict::kNotCoResident;
}

Verdict MemTraceDetector::verify(container::Container& a,
                                 container::Container& b,
                                 const ProbeEnv& env) {
  std::vector<double> trace_a;
  std::vector<double> trace_b;
  for (int sample = 0; sample < kMemTraceSamples; ++sample) {
    std::string mem_a;
    std::string mem_b;
    if (!read_pair(a, b, "/proc/meminfo", mem_a, mem_b)) {
      return Verdict::kInconclusive;
    }
    // MemFree is the second number (after MemTotal).
    const auto nums_a = extract_numbers(mem_a);
    const auto nums_b = extract_numbers(mem_b);
    if (nums_a.size() < 2 || nums_b.size() < 2) return Verdict::kInconclusive;
    trace_a.push_back(nums_a[1]);
    trace_b.push_back(nums_b[1]);
    env.advance(kSecond);
  }
  const double correlation = pearson_correlation(trace_a, trace_b);
  // Constant traces carry no information.
  RunningStats stats_a;
  for (double v : trace_a) stats_a.add(v);
  if (stats_a.stddev() == 0.0) return Verdict::kInconclusive;
  return correlation >= kMemTraceMinCorrelation ? Verdict::kCoResident
                                                 : Verdict::kNotCoResident;
}

Verdict ThermalSignalDetector::verify(container::Container& a,
                                      container::Container& b,
                                      const ProbeEnv& env) {
  // A transmits per 8-second slot by saturating several cores (heat) or
  // idling (cool); B decodes each bit from the *change* of the aggregate
  // die temperature over the slot — edge decoding is robust to residual
  // heat from previous slots and to slow background drift.
  auto aggregate_millic = [&]() -> std::optional<double> {
    double total = 0.0;
    for (int sensor = 2; sensor <= b.host().spec().num_cores + 1; ++sensor) {
      const auto view = b.read_file(strformat(
          "/sys/devices/platform/coretemp.0/hwmon/hwmon1/temp%d_input",
          sensor));
      if (!view.is_ok()) return std::nullopt;
      total += parse_first_double(view.value());
    }
    return total;
  };

  std::vector<int> pattern;
  Rng pattern_rng = a.host().fork_rng("thermal-signal");
  for (int bit = 0; bit < kThermalSignalBits; ++bit) {
    pattern.push_back(bit % 2 == 0 || pattern_rng.bernoulli(0.5) ? 1 : 0);
  }

  auto virus = workload::power_virus();
  int decoded_matches = 0;
  for (int bit : pattern) {
    const auto before = aggregate_millic();
    std::vector<kernel::HostPid> pids;
    if (bit == 1) {
      const std::size_t hogs = a.cpuset().empty()
                                   ? 4
                                   : std::max<std::size_t>(2, a.cpuset().size());
      for (std::size_t i = 0; i < hogs; ++i) {
        pids.push_back(a.run("heat", virus.behavior)->host_pid);
      }
    }
    env.advance(8 * kSecond);  // let the silicon heat or cool
    const auto after = aggregate_millic();
    for (auto pid : pids) a.kill(pid);
    env.advance(4 * kSecond);  // partial cool-down between slots
    if (!before.has_value() || !after.has_value()) {
      return Verdict::kInconclusive;
    }
    // 1-bits heat the die by tens of degree-cores; 0-bits cool it.
    const double delta = *after - *before;
    const int decoded = delta > 6000.0 ? 1 : 0;
    if (decoded == bit) ++decoded_matches;
  }
  return decoded_matches == kThermalSignalBits ? Verdict::kCoResident
                                               : Verdict::kNotCoResident;
}

Verdict PowerSignalDetector::verify(container::Container& a,
                                    container::Container& b,
                                    const ProbeEnv& env) {
  // A transmits a fixed preamble bit pattern by toggling a CPU hog per
  // 2-second slot; B decodes one bit per slot from the host power level
  // read through RAPL and compares against the expected pattern.
  std::vector<int> pattern;
  Rng pattern_rng = a.host().fork_rng("power-signal");
  for (int bit = 0; bit < kPowerSignalBits; ++bit) {
    pattern.push_back(bit % 2 == 0 || pattern_rng.bernoulli(0.5) ? 1 : 0);
  }

  std::vector<double> levels;
  auto virus = workload::power_virus();
  for (int bit : pattern) {
    std::vector<kernel::HostPid> pids;
    if (bit == 1) {
      const std::size_t hogs = std::max<std::size_t>(2, a.cpuset().size());
      for (std::size_t i = 0; i < hogs; ++i) {
        pids.push_back(a.run("txbit", virus.behavior)->host_pid);
      }
    }
    const auto before = b.read_file(kRaplEnergyPath);
    env.advance(2 * kSecond);
    const auto after = b.read_file(kRaplEnergyPath);
    for (auto pid : pids) a.kill(pid);
    if (!before.is_ok() || !after.is_ok()) return Verdict::kInconclusive;
    levels.push_back(
        (parse_first_double(after.value()) - parse_first_double(before.value())) /
        2e6);  // microjoule delta over 2 s -> watts
  }
  // Threshold at the midpoint between the observed low and high clusters.
  const double lo = *std::min_element(levels.begin(), levels.end());
  const double hi = *std::max_element(levels.begin(), levels.end());
  if (hi - lo < 5.0) return Verdict::kNotCoResident;  // no signal energy
  const double threshold = (lo + hi) / 2.0;
  int decoded_matches = 0;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const int bit = levels[i] > threshold ? 1 : 0;
    if (bit == pattern[i]) ++decoded_matches;
  }
  return decoded_matches == kPowerSignalBits ? Verdict::kCoResident
                                             : Verdict::kNotCoResident;
}

std::vector<std::unique_ptr<CoResidenceDetector>> all_detectors() {
  std::vector<std::unique_ptr<CoResidenceDetector>> detectors;
  detectors.push_back(std::make_unique<BootIdDetector>());
  detectors.push_back(std::make_unique<IfpriomapDetector>());
  detectors.push_back(std::make_unique<SchedDebugImplantDetector>());
  detectors.push_back(std::make_unique<TimerImplantDetector>());
  detectors.push_back(std::make_unique<LocksImplantDetector>());
  detectors.push_back(std::make_unique<UptimeDetector>());
  detectors.push_back(std::make_unique<EnergyCounterDetector>());
  detectors.push_back(std::make_unique<MemTraceDetector>());
  detectors.push_back(std::make_unique<PowerSignalDetector>());
  detectors.push_back(std::make_unique<ThermalSignalDetector>());
  return detectors;
}

}  // namespace cleaks::coresidence
