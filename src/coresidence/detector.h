// Co-residence detectors (§III-C): decide whether two containers share a
// physical host using only what each container can read through its own
// pseudo-file view. One detector per channel family of Table II:
//
//   group 1 (static unique ids)  — BootIdDetector, IfpriomapDetector
//   group 2 (implanted signature)— TimerImplantDetector,
//                                  SchedDebugImplantDetector,
//                                  LocksImplantDetector
//   group 3 (dynamic unique ids) — UptimeDetector, EnergyCounterDetector
//   V-group (trace matching)     — MemTraceDetector (MemFree snapshots)
//   covert signalling (M)        — PowerSignalDetector (load pulses read
//                                  back through the RAPL channel)
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "container/container.h"
#include "util/sim_time.h"

namespace cleaks::coresidence {

enum class Verdict { kCoResident, kNotCoResident, kInconclusive };

std::string to_string(Verdict verdict);

/// Environment handle: detectors advance *global* simulated time through
/// this (all hosts in the experiment move in lock-step, as wall-clock time
/// does for real probes).
struct ProbeEnv {
  std::function<void(SimDuration)> advance;
};

class CoResidenceDetector {
 public:
  virtual ~CoResidenceDetector() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Decide co-residence of `a` and `b`. A probe's cost is the sim time
  /// it advances through `env`; callers measure it on their own clock
  /// (evaluate_detector's AccuracyResult::sim_seconds_per_probe).
  virtual Verdict verify(container::Container& a, container::Container& b,
                         const ProbeEnv& env) = 0;
};

/// Same /proc/sys/kernel/random/boot_id <=> same running kernel.
class BootIdDetector final : public CoResidenceDetector {
 public:
  [[nodiscard]] std::string name() const override { return "boot_id"; }
  Verdict verify(container::Container& a, container::Container& b,
                 const ProbeEnv& env) override;
};

/// net_prio.ifpriomap lists the host's interfaces (including per-container
/// veth names, random per host) — identical maps identify a host.
class IfpriomapDetector final : public CoResidenceDetector {
 public:
  [[nodiscard]] std::string name() const override { return "ifpriomap"; }
  Verdict verify(container::Container& a, container::Container& b,
                 const ProbeEnv& env) override;
};

/// Container A arms a timer in a task with a crafted name; container B
/// searches /proc/timer_list for it.
class TimerImplantDetector final : public CoResidenceDetector {
 public:
  [[nodiscard]] std::string name() const override { return "timer_list"; }
  Verdict verify(container::Container& a, container::Container& b,
                 const ProbeEnv& env) override;
};

/// Crafted task name searched in /proc/sched_debug.
class SchedDebugImplantDetector final : public CoResidenceDetector {
 public:
  [[nodiscard]] std::string name() const override { return "sched_debug"; }
  Verdict verify(container::Container& a, container::Container& b,
                 const ProbeEnv& env) override;
};

/// A toggles file locks in a known on/off pattern; B watches the host-wide
/// lock count in /proc/locks follow the pattern.
class LocksImplantDetector final : public CoResidenceDetector {
 public:
  [[nodiscard]] std::string name() const override { return "locks"; }
  Verdict verify(container::Container& a, container::Container& b,
                 const ProbeEnv& env) override;
};

/// Simultaneous /proc/uptime reads: same host <=> equal up/idle values
/// (different hosts differ by days; §IV-C also uses close boot times as a
/// rack-proximity heuristic).
class UptimeDetector final : public CoResidenceDetector {
 public:
  [[nodiscard]] std::string name() const override { return "uptime"; }
  Verdict verify(container::Container& a, container::Container& b,
                 const ProbeEnv& env) override;
};

/// Simultaneous RAPL energy_uj reads: the accumulated counter is unique
/// per host.
class EnergyCounterDetector final : public CoResidenceDetector {
 public:
  [[nodiscard]] std::string name() const override { return "energy_uj"; }
  Verdict verify(container::Container& a, container::Container& b,
                 const ProbeEnv& env) override;
};

/// Snapshot-trace matching (the V metric): both containers record MemFree
/// from /proc/meminfo once per second and compare traces.
class MemTraceDetector final : public CoResidenceDetector {
 public:
  [[nodiscard]] std::string name() const override { return "meminfo-trace"; }
  Verdict verify(container::Container& a, container::Container& b,
                 const ProbeEnv& env) override;
};

/// Covert signalling over the coretemp (DTS) channel: A pulses a pinned
/// CPU hog; B watches per-core temperatures through
/// /sys/devices/platform/coretemp.* follow the pattern (the taskset
/// technique the paper's manipulation metric describes, and the thermal
/// covert channel of Bartolini/Masti et al. in related work).
class ThermalSignalDetector final : public CoResidenceDetector {
 public:
  [[nodiscard]] std::string name() const override { return "coretemp"; }
  Verdict verify(container::Container& a, container::Container& b,
                 const ProbeEnv& env) override;
};

/// Covert signalling: A pulses a CPU hog in a known bit pattern; B decodes
/// it from per-interval power deltas on the RAPL channel.
class PowerSignalDetector final : public CoResidenceDetector {
 public:
  [[nodiscard]] std::string name() const override { return "power-signal"; }
  Verdict verify(container::Container& a, container::Container& b,
                 const ProbeEnv& env) override;
};

/// All detectors, strongest-first (Table II rank order).
std::vector<std::unique_ptr<CoResidenceDetector>> all_detectors();

}  // namespace cleaks::coresidence
