// Global (non-namespaced) kernel state.
//
// Everything in this struct is system-wide: it is the data that the Table I
// leakage channels read. The fs module renders it into procfs/sysfs text;
// whether a given pseudo file filters it by the viewer's namespaces is
// exactly what the leakage detector tests.
//
// State is sized by what moves: a per-cpu counter that rises by the same
// amount on every cpu is stored once per host (LockstepCounters), and only
// values that differ between cpus keep a per-core vector.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/sim_time.h"

namespace cleaks::kernel {

/// Per-cpu time accounting in USER_HZ jiffies, as /proc/stat reports. The
/// irq and softirq columns rise in lockstep on every cpu, so they live once
/// per host in LockstepCounters.
struct CpuTimes {
  std::uint64_t user = 0;
  std::uint64_t nice = 0;
  std::uint64_t system = 0;
  std::uint64_t idle = 0;
  std::uint64_t iowait = 0;
  std::uint64_t steal = 0;

  [[nodiscard]] CpuTimes operator+(const CpuTimes& o) const noexcept {
    return {user + o.user,     nice + o.nice,     system + o.system,
            idle + o.idle,     iowait + o.iowait, steal + o.steal};
  }
};

/// Behavioural class of an interrupt line; the counter update dispatches
/// on it.
enum class IrqKind {
  kLocalTimer,  ///< "LOC" and the IO-APIC timer "0": one per cpu per jiffy
  kNic,         ///< "25": events scale with IO rate, land on cpu0
  kDisk,        ///< "27": likewise
  kResched,     ///< "RES": follows scheduler migrations
  kOther,       ///< static lines (ehci, CAL, TLB)
};

/// One line of /proc/interrupts.
struct IrqLine {
  const char* label;  ///< "0", "LOC", "RES", ...
  const char* description;
  IrqKind kind;
};

/// The interrupt table of every host, in /proc/interrupts order: timer,
/// NICs, disk, rescheduling and local timer lines.
constexpr std::array<IrqLine, 8> kIrqLines = {{
    {"0", "IO-APIC timer", IrqKind::kLocalTimer},
    {"16", "IO-APIC ehci_hcd", IrqKind::kOther},
    {"25", "PCI-MSI eth0", IrqKind::kNic},
    {"27", "PCI-MSI ahci", IrqKind::kDisk},
    {"LOC", "Local timer interrupts", IrqKind::kLocalTimer},
    {"RES", "Rescheduling interrupts", IrqKind::kResched},
    {"CAL", "Function call interrupts", IrqKind::kOther},
    {"TLB", "TLB shootdowns", IrqKind::kOther},
}};

/// Softirq kinds in /proc/softirqs order; LockstepCounters::softirqs is
/// indexed by these.
namespace softirq {
enum : std::size_t {
  kHi, kTimer, kNetTx, kNetRx, kBlock, kIrqPoll, kTasklet, kSched, kHrtimer,
  kRcu, kCount
};
}  // namespace softirq

constexpr std::array<const char*, softirq::kCount> kSoftirqNames = {
    "HI",        "TIMER", "NET_TX",  "NET_RX", "BLOCK",
    "IRQ_POLL",  "TASKLET", "SCHED", "HRTIMER", "RCU"};

/// A per-cpu count that rises by the same amount on every cpu: each cpu
/// reads `every_cpu`, and cpu0 reads `cpu0_extra` on top (device
/// interrupts and their softirqs land on cpu0 alone).
struct LockstepCount {
  std::uint64_t every_cpu = 0;
  std::uint64_t cpu0_extra = 0;

  [[nodiscard]] std::uint64_t on_cpu(int cpu) const noexcept {
    return cpu == 0 ? every_cpu + cpu0_extra : every_cpu;
  }
};

/// The per-cpu counters that advance by the same amount on every cpu at
/// every tick and every coast (Host::advance_interrupts_), stored once per
/// host. Only the /proc/stat, interrupts, softirqs and schedstat renders
/// expand them per cpu.
struct LockstepCounters {
  std::array<LockstepCount, kIrqLines.size()> irqs{};
  std::array<LockstepCount, softirq::kCount> softirqs{};
  std::uint64_t irq_jiffies = 0;      ///< each cpu's /proc/stat irq column
  std::uint64_t softirq_jiffies = 0;  ///< each cpu's /proc/stat softirq
  std::uint64_t schedule_called = 0;  ///< each cpu's schedstat schedule()s
};

struct Module {
  std::string name;
  std::uint64_t size = 0;
  int refcount = 0;
};

/// NUMA counters per node (/sys/devices/system/node/node#/numastat).
struct NumaStats {
  std::uint64_t numa_hit = 0;
  std::uint64_t numa_miss = 0;
  std::uint64_t numa_foreign = 0;
  std::uint64_t interleave_hit = 0;
  std::uint64_t local_node = 0;
  std::uint64_t other_node = 0;
};

/// Scheduler statistics per cpu (/proc/schedstat); schedule() calls rise
/// in lockstep and live in LockstepCounters.
struct SchedStat {
  std::uint64_t sched_yield = 0;
  std::uint64_t sched_goidle = 0;
  std::uint64_t ttwu_count = 0;
  std::uint64_t ttwu_local = 0;
  std::uint64_t run_time_ns = 0;
  std::uint64_t wait_time_ns = 0;
  std::uint64_t timeslices = 0;
};

struct KernelState {
  // --- identity / static ---
  std::string boot_id;          ///< /proc/sys/kernel/random/boot_id
  std::string kernel_version = "4.7.0";
  std::string distribution = "Ubuntu 16.04";
  std::string gcc_version = "5.4.0 20160609";
  SimTime boot_time = 0;        ///< simulated instant this host booted
  std::vector<Module> modules;

  // --- accumulators ---
  std::uint64_t uptime_ns = 0;
  std::uint64_t idle_time_ns = 0;  ///< summed over all cores
  std::vector<CpuTimes> cpu_times; ///< per core
  LockstepCounters lockstep;       ///< once per host, rendered per cpu
  std::uint64_t total_interrupts = 0;
  std::uint64_t total_ctxt_switches = 0;
  std::uint64_t processes_forked = 0;
  int procs_running = 0;
  int procs_blocked = 0;
  std::vector<SchedStat> schedstat;  ///< per core
  std::vector<NumaStats> numa;       ///< per node

  // --- memory (kB) ---
  std::uint64_t mem_total_kb = 0;
  std::uint64_t mem_free_kb = 0;
  std::uint64_t buffers_kb = 0;
  std::uint64_t cached_kb = 0;
  std::uint64_t slab_kb = 0;
  std::uint64_t active_kb = 0;
  std::uint64_t inactive_kb = 0;
  std::uint64_t dirty_kb = 0;

  // --- loadavg ---
  double load1 = 0.0;
  double load5 = 0.0;
  double load15 = 0.0;

  // --- RNG subsystem ---
  int entropy_avail = 3000;
  int poolsize = 4096;

  // --- VFS counters ---
  std::uint64_t file_nr = 1216;
  std::uint64_t file_max = 1620437;
  std::uint64_t inode_nr = 180000;
  std::uint64_t inode_free = 2000;
  std::uint64_t dentry_nr = 210000;
  std::uint64_t dentry_unused = 190000;
  int dentry_age_limit = 45;

  // --- ext4 (per block group free extents, backing mb_groups) ---
  std::vector<std::uint64_t> ext4_group_free_blocks;

  // --- scheduler domain tuning (/proc/sys/kernel/sched_domain) ---
  /// max_newidle_lb_cost per (cpu, domain); updated by load balancing.
  std::vector<std::array<std::uint64_t, 2>> sched_domain_lb_cost;

  /// Standard module list for an Ubuntu 16.04 / 4.7 host.
  static std::vector<Module> default_modules(bool has_rapl, bool has_coretemp);
};

}  // namespace cleaks::kernel
