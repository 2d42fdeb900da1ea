#include <algorithm>
#include <cstdio>
#include <vector>

#include "fs/render.h"
#include "util/strings.h"

namespace cleaks::fs::render {
namespace {

using kernel::CpuTimes;
using kernel::Task;

/// Wall-clock epoch of simulated t=0 (2016-11-28, the date of the paper's
/// last check on the leakage channels).
constexpr std::uint64_t kEpochBase = 1480291200;

/// Cores the viewer may use: its cgroup cpuset, or every core.
std::vector<int> visible_cores(const RenderContext& ctx, bool restricted) {
  const int total = ctx.host.spec().num_cores;
  if (restricted && ctx.viewer != nullptr && ctx.viewer->cgroup != nullptr &&
      !ctx.viewer->cgroup->cpuset.cpus.empty()) {
    return ctx.viewer->cgroup->cpuset.cpus;
  }
  std::vector<int> cores(static_cast<std::size_t>(total));
  for (int c = 0; c < total; ++c) cores[static_cast<std::size_t>(c)] = c;
  return cores;
}

}  // namespace

/// True when `task` belongs to the viewer's container (used by the
/// restricted task-list renders: an lxcfs-style or namespaced view shows
/// only the tenant's own processes).
bool visible_task(const RenderContext& ctx, const Task& task) {
  if (!ctx.restricted || ctx.viewer == nullptr ||
      !ctx.viewer->is_containerized()) {
    return true;
  }
  return task.container_id == ctx.viewer->container_id;
}

void uptime(const RenderContext& ctx, std::string& out) {
  const auto& ks = ctx.host.state();
  if (ctx.restricted && ctx.viewer != nullptr &&
      ctx.viewer->is_containerized()) {
    // Container-scoped view: seconds since the container's init started,
    // idle time derived from the cgroup's own CPU accounting.
    const double up =
        static_cast<double>(ctx.host.now() -
                            std::min(ctx.host.now(), ctx.viewer->start_time)) /
        1e9;
    const auto cpus = ctx.viewer->cgroup != nullptr &&
                              !ctx.viewer->cgroup->cpuset.cpus.empty()
                          ? ctx.viewer->cgroup->cpuset.cpus.size()
                          : static_cast<std::size_t>(ctx.host.spec().num_cores);
    const double busy =
        ctx.viewer->cgroup != nullptr
            ? static_cast<double>(ctx.viewer->cgroup->cpuacct.total_usage_ns()) /
                  1e9
            : 0.0;
    const double idle = std::max(0.0, up * static_cast<double>(cpus) - busy);
    strappendf(out, "%.2f %.2f\n", up, idle);
    return;
  }
  const double up = static_cast<double>(ks.uptime_ns) / 1e9;
  const double idle = static_cast<double>(ks.idle_time_ns) / 1e9;
  strappendf(out, "%.2f %.2f\n", up, idle);
}

void version(const RenderContext& ctx, std::string& out) {
  const auto& ks = ctx.host.state();
  strappendf(out,
             "Linux version %s-generic (buildd@lgw01-11) (gcc version %s "
             "(%s)) #1 SMP Mon Aug 1 10:00:00 UTC 2016\n",
             ks.kernel_version.c_str(), ks.gcc_version.c_str(),
             ks.distribution.c_str());
}

void stat(const RenderContext& ctx, std::string& out) {
  const auto& ks = ctx.host.state();
  const auto& lockstep = ks.lockstep;
  const auto cores = visible_cores(ctx, ctx.restricted);
  CpuTimes total;
  for (int core : cores) {
    total = total + ks.cpu_times[static_cast<std::size_t>(core)];
  }
  auto cpu_line = [&out](const char* label, const CpuTimes& t,
                         std::uint64_t irq, std::uint64_t softirq) {
    strappendf(out, "%s %llu %llu %llu %llu %llu %llu %llu %llu 0 0\n", label,
               (unsigned long long)t.user, (unsigned long long)t.nice,
               (unsigned long long)t.system, (unsigned long long)t.idle,
               (unsigned long long)t.iowait, (unsigned long long)irq,
               (unsigned long long)softirq, (unsigned long long)t.steal);
  };
  cpu_line("cpu ", total, lockstep.irq_jiffies * cores.size(),
           lockstep.softirq_jiffies * cores.size());
  for (int core : cores) {
    char label[16];
    std::snprintf(label, sizeof label, "cpu%d", core);
    cpu_line(label, ks.cpu_times[static_cast<std::size_t>(core)],
             lockstep.irq_jiffies, lockstep.softirq_jiffies);
  }
  strappendf(out, "intr %llu\n", (unsigned long long)ks.total_interrupts);
  strappendf(out, "ctxt %llu\n", (unsigned long long)ks.total_ctxt_switches);
  strappendf(out, "btime %llu\n",
             (unsigned long long)(kEpochBase + ks.boot_time / kSecond));
  strappendf(out, "processes %llu\n", (unsigned long long)ks.processes_forked);
  strappendf(out, "procs_running %d\n", ks.procs_running);
  strappendf(out, "procs_blocked %d\n", ks.procs_blocked);
}

void meminfo(const RenderContext& ctx, std::string& out) {
  const auto& ks = ctx.host.state();
  std::uint64_t total_kb = ks.mem_total_kb;
  std::uint64_t free_kb = ks.mem_free_kb;
  if (ctx.restricted && ctx.viewer != nullptr &&
      ctx.viewer->cgroup != nullptr &&
      ctx.viewer->cgroup->memory.limit_bytes > 0) {
    // Tenant-scoped view (CC5 style): report the cgroup limit as MemTotal.
    total_kb = ctx.viewer->cgroup->memory.limit_bytes >> 10;
    const std::uint64_t used_kb = ctx.viewer->cgroup->memory.usage_bytes >> 10;
    free_kb = total_kb > used_kb ? total_kb - used_kb : 0;
  }
  strappendf(out, "MemTotal:       %8llu kB\n", (unsigned long long)total_kb);
  strappendf(out, "MemFree:        %8llu kB\n", (unsigned long long)free_kb);
  strappendf(out, "MemAvailable:   %8llu kB\n",
             (unsigned long long)(free_kb + ks.cached_kb / 2));
  strappendf(out, "Buffers:        %8llu kB\n",
             (unsigned long long)ks.buffers_kb);
  strappendf(out, "Cached:         %8llu kB\n", (unsigned long long)ks.cached_kb);
  strappendf(out, "Active:         %8llu kB\n", (unsigned long long)ks.active_kb);
  strappendf(out, "Inactive:       %8llu kB\n",
             (unsigned long long)ks.inactive_kb);
  strappendf(out, "Dirty:          %8llu kB\n", (unsigned long long)ks.dirty_kb);
  strappendf(out, "Slab:           %8llu kB\n", (unsigned long long)ks.slab_kb);
  out += "SwapTotal:             0 kB\n";
  out += "SwapFree:              0 kB\n";
}

void loadavg(const RenderContext& ctx, std::string& out) {
  const auto& ks = ctx.host.state();
  if (ctx.restricted && ctx.viewer != nullptr &&
      ctx.viewer->is_containerized()) {
    // cgroup-scoped view (lxcfs behaviour): load derived from the
    // container's own runnable tasks.
    double expected_runnable = 0.0;
    int total_tasks = 0;
    int last_pid = 0;
    for (const auto& task : ctx.host.tasks()) {
      if (task->container_id != ctx.viewer->container_id) continue;
      ++total_tasks;
      expected_runnable += std::min(1.0, task->behavior.duty_cycle);
      last_pid = std::max(last_pid, task->ns_pid);
    }
    strappendf(out, "%.2f %.2f %.2f %d/%d %d\n", expected_runnable,
               expected_runnable, expected_runnable,
               std::max(1, static_cast<int>(expected_runnable)), total_tasks,
               last_pid);
    return;
  }
  int total_tasks = static_cast<int>(ctx.host.tasks().size());
  int last_pid = 0;
  for (const auto& task : ctx.host.tasks()) {
    last_pid = std::max(last_pid, task->host_pid);
  }
  strappendf(out, "%.2f %.2f %.2f %d/%d %d\n", ks.load1, ks.load5, ks.load15,
             ks.procs_running, total_tasks, last_pid);
}

void interrupts(const RenderContext& ctx, std::string& out) {
  const auto& ks = ctx.host.state();
  const int cores = ctx.host.spec().num_cores;
  out += "          ";
  for (int core = 0; core < cores; ++core) {
    char cpu_label[16];
    std::snprintf(cpu_label, sizeof cpu_label, "CPU%d", core);
    strappendf(out, "%10s", cpu_label);
  }
  out += '\n';
  for (std::size_t i = 0; i < kernel::kIrqLines.size(); ++i) {
    strappendf(out, "%4s: ", kernel::kIrqLines[i].label);
    for (int core = 0; core < cores; ++core) {
      strappendf(out, "%10llu",
                 (unsigned long long)ks.lockstep.irqs[i].on_cpu(core));
    }
    out += "  ";
    out += kernel::kIrqLines[i].description;
    out += '\n';
  }
}

void softirqs(const RenderContext& ctx, std::string& out) {
  const auto& ks = ctx.host.state();
  const int cores = ctx.host.spec().num_cores;
  out += "          ";
  for (int core = 0; core < cores; ++core) {
    char cpu_label[16];
    std::snprintf(cpu_label, sizeof cpu_label, "CPU%d", core);
    strappendf(out, "%12s", cpu_label);
  }
  out += '\n';
  for (std::size_t type = 0; type < kernel::kSoftirqNames.size(); ++type) {
    strappendf(out, "%10s:", kernel::kSoftirqNames[type]);
    for (int core = 0; core < cores; ++core) {
      strappendf(out, "%12llu",
                 (unsigned long long)ks.lockstep.softirqs[type].on_cpu(core));
    }
    out += '\n';
  }
}

void cpuinfo(const RenderContext& ctx, std::string& out) {
  const auto& spec = ctx.host.spec();
  const auto cores = visible_cores(ctx, ctx.restricted);
  const double mhz = ctx.host.effective_freq_hz() / 1e6;
  for (int core : cores) {
    strappendf(out, "processor\t: %d\n", core);
    strappendf(out, "vendor_id\t: %s\n", spec.vendor_id.c_str());
    strappendf(out, "cpu family\t: %d\n", spec.cpu_family);
    strappendf(out, "model\t\t: %d\n", spec.model);
    strappendf(out, "model name\t: %s\n", spec.model_name.c_str());
    strappendf(out, "cpu MHz\t\t: %.3f\n", mhz);
    strappendf(out, "cache size\t: %llu KB\n", (unsigned long long)spec.cache_kb);
    strappendf(out, "physical id\t: %d\n",
               core / std::max(1, spec.cores_per_package));
    strappendf(out, "core id\t\t: %d\n",
               core % std::max(1, spec.cores_per_package));
    strappendf(out, "cpu cores\t: %d\n", spec.cores_per_package);
    out += '\n';
  }
}

void schedstat(const RenderContext& ctx, std::string& out) {
  const auto& ks = ctx.host.state();
  out += "version 15\n";
  strappendf(out, "timestamp %llu\n",
             (unsigned long long)(ks.uptime_ns / (10 * kMillisecond)));
  for (int core : visible_cores(ctx, ctx.restricted)) {
    const auto& s = ks.schedstat[static_cast<std::size_t>(core)];
    strappendf(out, "cpu%d %llu 0 %llu %llu %llu %llu %llu %llu %llu\n", core,
               (unsigned long long)s.sched_yield,
               (unsigned long long)ks.lockstep.schedule_called,
               (unsigned long long)s.sched_goidle,
               (unsigned long long)s.ttwu_count,
               (unsigned long long)s.ttwu_local,
               (unsigned long long)s.run_time_ns,
               (unsigned long long)s.wait_time_ns,
               (unsigned long long)s.timeslices);
  }
}

void zoneinfo(const RenderContext& ctx, std::string& out) {
  const auto& ks = ctx.host.state();
  const int nodes = std::max(1, ctx.host.spec().numa_nodes);
  const std::uint64_t pages_total = ks.mem_total_kb / 4;
  const std::uint64_t pages_free = ks.mem_free_kb / 4;
  for (int node = 0; node < nodes; ++node) {
    const std::uint64_t node_pages = pages_total / nodes;
    const std::uint64_t node_free = pages_free / nodes;
    strappendf(out, "Node %d, zone   Normal\n", node);
    strappendf(out, "  pages free     %llu\n", (unsigned long long)node_free);
    strappendf(out, "        min      %llu\n",
               (unsigned long long)(node_pages / 256));
    strappendf(out, "        low      %llu\n",
               (unsigned long long)(node_pages / 200));
    strappendf(out, "        high     %llu\n",
               (unsigned long long)(node_pages / 160));
    strappendf(out, "        spanned  %llu\n", (unsigned long long)node_pages);
    strappendf(out, "        present  %llu\n", (unsigned long long)node_pages);
    strappendf(out, "        managed  %llu\n",
               (unsigned long long)(node_pages * 97 / 100));
    strappendf(out, "    nr_active_anon %llu\n",
               (unsigned long long)(ks.active_kb / 4 / nodes));
    strappendf(out, "    nr_inactive_anon %llu\n",
               (unsigned long long)(ks.inactive_kb / 4 / nodes));
    strappendf(out, "    nr_dirty %llu\n",
               (unsigned long long)(ks.dirty_kb / 4 / nodes));
  }
}

void locks(const RenderContext& ctx, std::string& out) {
  int index = 1;
  for (const auto& task : ctx.host.tasks()) {
    if (!visible_task(ctx, *task)) continue;
    for (int lock = 0; lock < task->behavior.file_locks; ++lock) {
      // Host pids of every lock holder are visible — the leak.
      strappendf(out, "%d: POSIX  ADVISORY  WRITE %d 08:01:%d 0 EOF\n", index++,
                 task->host_pid, 1048576 + task->host_pid * 16 + lock);
    }
  }
}

/// Monotonic clock as the viewer sees it: host uptime, or (for restricted
/// tenant-scoped views) nanoseconds since the container started — a
/// virtualized timer_list must not leak the host clock through its header.
std::uint64_t viewer_clock_ns(const RenderContext& ctx) {
  if (ctx.restricted && ctx.viewer != nullptr &&
      ctx.viewer->is_containerized()) {
    return ctx.host.now() - std::min(ctx.host.now(), ctx.viewer->start_time);
  }
  return ctx.host.state().uptime_ns;
}

void timer_list(const RenderContext& ctx, std::string& out) {
  out += "Timer List Version: v0.8\n";
  strappendf(out, "HRTIMER_MAX_CLOCK_BASES: 4\nnow at %llu nsecs\n\n",
             (unsigned long long)viewer_clock_ns(ctx));
  const int cores = ctx.host.spec().num_cores;
  for (int core = 0; core < cores; ++core) {
    strappendf(out, "cpu: %d\n", core);
    out += " clock 0:\n  .base:       ffff88021fa0e700\n";
    int slot = 0;
    // Every task's armed timers are listed with comm/pid — the channel a
    // tenant uses to implant a recognizable signature (§III-C group 2).
    // A restricted (namespaced/lxcfs) view lists only the tenant's own.
    for (const auto& task : ctx.host.tasks()) {
      if (task->cpu != core || !visible_task(ctx, *task)) continue;
      for (int t = 0; t < task->behavior.named_timers; ++t) {
        strappendf(out,
                   " #%d: <0000000000000000>, hrtimer_wakeup, S:01, "
                   "futex_wait_queue_me, %s/%d\n",
                   slot++, task->comm.c_str(), task->host_pid);
        strappendf(out,
                   " # expires at %llu-%llu nsecs [in %llu to %llu "
                   "nsecs]\n",
                   (unsigned long long)(viewer_clock_ns(ctx) + 1000000),
                   (unsigned long long)(viewer_clock_ns(ctx) + 1050000),
                   1000000ULL, 1050000ULL);
      }
    }
  }
}

void sched_debug(const RenderContext& ctx, std::string& out) {
  const auto& ks = ctx.host.state();
  strappendf(out, "Sched Debug Version: v0.11, %s-generic\n",
             ks.kernel_version.c_str());
  strappendf(out, "ktime                                   : %llu\n",
             (unsigned long long)(viewer_clock_ns(ctx) / 1000000));
  const int cores = ctx.host.spec().num_cores;
  for (int core = 0; core < cores; ++core) {
    strappendf(out, "\ncpu#%d, %.3f MHz\n", core,
               ctx.host.effective_freq_hz() / 1e6);
    const auto& runnable = ctx.host.scheduler().runnable_per_core();
    strappendf(out, "  .nr_running                    : %d\n",
               runnable[static_cast<std::size_t>(core)]);
    out += "\nrunnable tasks:\n";
    out += " S           task   PID         tree-key  switches  prio\n";
    out += "-------------------------------------------------------\n";
    // All host processes, with comms and host pids — the strongest implant
    // channel of §III-C (a uniquely named task is searchable from any
    // co-resident container). A restricted view is tenant-scoped.
    for (const auto& task : ctx.host.tasks()) {
      if (task->cpu != core || !visible_task(ctx, *task)) continue;
      strappendf(out, " %c %14s %5d %16llu %9llu   120\n",
                 task->behavior.duty_cycle > 0 ? 'R' : 'S', task->comm.c_str(),
                 task->host_pid,
                 (unsigned long long)(task->stats.runtime_ns / 1000),
                 (unsigned long long)task->stats.ctx_switches);
    }
  }
}

void modules(const RenderContext& ctx, std::string& out) {
  for (const auto& module : ctx.host.state().modules) {
    strappendf(out, "%s %llu %d - Live 0xffffffffc0000000\n",
               module.name.c_str(), (unsigned long long)module.size,
               module.refcount);
  }
}

void boot_id(const RenderContext& ctx, std::string& out) {
  out += ctx.host.state().boot_id;
  out += '\n';
}

void entropy_avail(const RenderContext& ctx, std::string& out) {
  strappendf(out, "%d\n", ctx.host.state().entropy_avail);
}

void random_poolsize(const RenderContext& ctx, std::string& out) {
  strappendf(out, "%d\n", ctx.host.state().poolsize);
}

void fs_file_nr(const RenderContext& ctx, std::string& out) {
  const auto& ks = ctx.host.state();
  strappendf(out, "%llu\t0\t%llu\n", (unsigned long long)ks.file_nr,
             (unsigned long long)ks.file_max);
}

void fs_inode_nr(const RenderContext& ctx, std::string& out) {
  const auto& ks = ctx.host.state();
  strappendf(out, "%llu\t%llu\n", (unsigned long long)ks.inode_nr,
             (unsigned long long)ks.inode_free);
}

void fs_dentry_state(const RenderContext& ctx, std::string& out) {
  const auto& ks = ctx.host.state();
  strappendf(out, "%llu\t%llu\t%d\t0\t0\t0\n", (unsigned long long)ks.dentry_nr,
             (unsigned long long)ks.dentry_unused, ks.dentry_age_limit);
}

void max_newidle_lb_cost(const RenderContext& ctx, int cpu, int domain,
                         std::string& out) {
  const auto& costs = ctx.host.state().sched_domain_lb_cost;
  if (cpu < 0 || static_cast<std::size_t>(cpu) >= costs.size() || domain < 0 ||
      domain > 1) {
    out += "0\n";
    return;
  }
  strappendf(out, "%llu\n",
             (unsigned long long)costs[static_cast<std::size_t>(cpu)]
                                      [static_cast<std::size_t>(domain)]);
}

void ext4_mb_groups(const RenderContext& ctx, std::string& out) {
  out += "#group: free  frags first [ 2^0 2^1 2^2 2^3 2^4 2^5 2^6 ]\n";
  const auto& groups = ctx.host.state().ext4_group_free_blocks;
  for (std::size_t group = 0; group < groups.size(); ++group) {
    const auto free_blocks = groups[group];
    strappendf(
        out,
        "#%-5zu: %-5llu %-5llu %-5llu [ %llu %llu %llu %llu %llu %llu %llu ]\n",
        group, (unsigned long long)free_blocks,
        (unsigned long long)(free_blocks / 9 + 1), 0ULL,
        (unsigned long long)(free_blocks % 2),
        (unsigned long long)(free_blocks / 2 % 2),
        (unsigned long long)(free_blocks / 4 % 4),
        (unsigned long long)(free_blocks / 16 % 8),
        (unsigned long long)(free_blocks / 64 % 16),
        (unsigned long long)(free_blocks / 256 % 16),
        (unsigned long long)(free_blocks / 1024 % 32));
  }
}

// ---- properly namespaced files ----

void pid_file(const RenderContext& ctx, const Task& task,
              std::string_view leaf, std::string& out) {
  // pids render in the viewer's namespace: the init namespace sees host
  // pids; a container sees its local ones.
  const bool init_view = ctx.viewer == nullptr ||
                         ctx.viewer->ns.pid == ctx.host.init_ns().pid;
  const int pid = init_view ? task.host_pid : task.ns_pid;
  if (leaf == "cmdline") {
    out += task.comm;
    out += '\n';
    return;
  }
  if (leaf == "stat") {
    const auto utime =
        static_cast<std::uint64_t>(task.stats.runtime_ns / 1e7 * 0.9);
    const auto stime =
        static_cast<std::uint64_t>(task.stats.runtime_ns / 1e7 * 0.1);
    strappendf(out, "%d (%s) %c 1 %d %d 0 -1 4194304 0 0 0 0 %llu %llu\n", pid,
               task.comm.c_str(), task.behavior.duty_cycle > 0 ? 'R' : 'S',
               pid, pid, (unsigned long long)utime, (unsigned long long)stime);
    return;
  }
  if (leaf == "sched") {
    strappendf(out, "%s (%d, #threads: 1)\n", task.comm.c_str(), pid);
    out += "-------------------------------------------------------------------\n";
    strappendf(out, "se.sum_exec_runtime                          : %.6f\n",
               static_cast<double>(task.stats.runtime_ns) / 1e6);
    strappendf(out, "nr_switches                                  : %llu\n",
               (unsigned long long)task.stats.ctx_switches);
    strappendf(out, "nr_migrations                                : %llu\n",
               (unsigned long long)task.stats.migrations);
    out += "prio                                         : 120\n";
    return;
  }
  // "status"
  strappendf(out, "Name:\t%s\n", task.comm.c_str());
  strappendf(out, "State:\t%s\n",
             task.behavior.duty_cycle > 0 ? "R (running)" : "S (sleeping)");
  strappendf(out, "Pid:\t%d\n", pid);
  strappendf(out, "VmRSS:\t%llu kB\n",
             (unsigned long long)(task.behavior.rss_bytes >> 10));
  out += "Threads:\t1\n";
  strappendf(out, "voluntary_ctxt_switches:\t%llu\n",
             (unsigned long long)task.stats.ctx_switches);
}

void self_cgroup(const RenderContext& ctx, std::string& out) {
  // With a CGROUP namespace the path is shown relative to the ns root.
  std::string path = "/";
  if (ctx.viewer != nullptr && ctx.viewer->cgroup != nullptr) {
    const std::string& full = ctx.viewer->cgroup->path();
    const std::string& root = ctx.ns().cgroup->root_path;
    if (root != "/" && full.rfind(root, 0) == 0) {
      path = full.substr(root.size());
      if (path.empty()) path = "/";
    } else {
      path = full;
    }
  }
  int index = 12;
  for (const char* controller :
       {"cpuacct", "perf_event", "net_prio", "cpuset", "memory"}) {
    strappendf(out, "%d:%s:%s\n", index--, controller, path.c_str());
  }
}

void sys_hostname(const RenderContext& ctx, std::string& out) {
  out += ctx.ns().uts->hostname;
  out += '\n';
}

void net_dev(const RenderContext& ctx, std::string& out) {
  out +=
      "Inter-|   Receive                            |  Transmit\n"
      " face |bytes    packets errs drop fifo frame |bytes    packets\n";
  const auto& ks = ctx.host.state();
  // Byte counters scale with uptime; containers only see their own NET
  // namespace's devices (this file is properly namespaced — contrast case).
  const std::uint64_t base = ks.uptime_ns / 1000;
  for (const auto& device : ctx.ns().net->devices) {
    const std::uint64_t rx = device.name == "lo" ? base / 50 : base;
    strappendf(out, "%6s: %8llu %8llu    0    0    0     0 %8llu %8llu\n",
               device.name.c_str(), (unsigned long long)rx,
               (unsigned long long)(rx / 900), (unsigned long long)(rx / 2),
               (unsigned long long)(rx / 1800));
  }
}

void self_status(const RenderContext& ctx, std::string& out) {
  const Task* task = ctx.viewer;
  strappendf(out, "Name:\t%s\n", task != nullptr ? task->comm.c_str() : "bash");
  // Inside a PID namespace the task sees its ns-local pid.
  strappendf(out, "Pid:\t%d\n", task != nullptr ? task->ns_pid : 1);
  strappendf(out, "NSpid:\t%d\n", task != nullptr ? task->ns_pid : 1);
  out += "Threads:\t1\n";
}

}  // namespace cleaks::fs::render
