// Control groups (§II-A2). One unified hierarchy carries the controller
// state this reproduction needs: cpuacct (CPU cycle accounting feeding the
// power model), perf_event (per-container performance counters), net_prio
// (the ifpriomap leakage channel of case study I), cpuset, memory and a cpu
// bandwidth quota.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace cleaks::kernel {

/// cpuacct controller: accumulated CPU time per cpu in nanoseconds
/// (cpuacct.usage_percpu) plus total cycles, which the power-based
/// namespace's data-collection stage reads (§V-B1).
struct CpuacctState {
  std::vector<std::uint64_t> usage_ns_per_cpu;
  double total_cycles = 0.0;

  /// Grow the per-cpu row to at least `num_cpus` entries (never shrinks).
  void ensure_cpus(int num_cpus) {
    const auto n = static_cast<std::size_t>(num_cpus);
    if (n > usage_ns_per_cpu.size()) usage_ns_per_cpu.resize(n, 0);
  }
  [[nodiscard]] std::uint64_t total_usage_ns() const {
    std::uint64_t total = 0;
    for (const std::uint64_t ns : usage_ns_per_cpu) total += ns;
    return total;
  }
};

/// Counters accumulated by the perf_event controller for one cgroup.
struct PerfCounters {
  std::uint64_t instructions = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t cycles = 0;
};

/// One hardware event programmed on one cpu for a cgroup. `pmu_state`
/// models the lazily saved/restored PMU context; the context-switch hook
/// touches it so inter-cgroup switches have a real, measurable cost
/// (the Table III overhead).
struct PerfEventInstance {
  int event_type = 0;  ///< 0=instructions 1=cache-misses 2=branch-misses 3=cycles
  bool enabled = false;
  std::uint64_t pmu_state = 0;
  std::uint64_t accumulated = 0;
};

struct PerfEventState {
  bool accounting_enabled = false;
  /// cpu-major: events[cpu * kEventsPerCpu + type].
  std::vector<PerfEventInstance> events;
  PerfCounters counters;
};

/// net_prio controller state: per-interface priorities set *by this cgroup*.
/// NOTE: the read handler for net_prio.ifpriomap in src/fs iterates the
/// *host's* device list (init_net) regardless of the reader's NET namespace —
/// reproducing the missing-context-check bug of §III-B case study I.
struct NetPrioState {
  std::map<std::string, int> ifpriomap;
};

struct CpusetState {
  std::vector<int> cpus;  ///< allowed cores; empty = all
};

struct MemoryState {
  std::uint64_t limit_bytes = 0;  ///< 0 = unlimited
  std::uint64_t usage_bytes = 0;
};

class Cgroup {
 public:
  explicit Cgroup(std::string path) : path_(std::move(path)) {}

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] bool is_root() const noexcept { return path_ == "/"; }

  CpuacctState cpuacct;
  PerfEventState perf;
  NetPrioState net_prio;
  CpusetState cpuset;
  MemoryState memory;
  /// Fraction of one core this cgroup may consume per allowed core;
  /// < 0 means no quota.
  double cpu_quota = -1.0;

 private:
  std::string path_;
};

/// Owns the cgroup hierarchy of one host.
class CgroupManager {
 public:
  CgroupManager();

  /// Root ("/") cgroup; host tasks live here.
  [[nodiscard]] const std::shared_ptr<Cgroup>& root() const { return root_; }

  /// Create (or return existing) cgroup at `path` (e.g. "/docker/ab12cd").
  std::shared_ptr<Cgroup> create(const std::string& path);

  /// Lookup; nullptr when absent.
  [[nodiscard]] std::shared_ptr<Cgroup> find(const std::string& path) const;

  /// Remove a cgroup. Root cannot be removed.
  bool remove(const std::string& path);

  /// All cgroups in path order (root first).
  [[nodiscard]] std::vector<std::shared_ptr<Cgroup>> all() const;

 private:
  std::shared_ptr<Cgroup> root_;
  std::map<std::string, std::shared_ptr<Cgroup>> groups_;
};

}  // namespace cleaks::kernel
