// Time-sliced fair scheduler over per-core runqueues.
//
// Tasks are pinned to one core at a time (chosen least-loaded within their
// cpuset at spawn; periodic rebalancing migrates tasks like the kernel's
// load balancer would). Every tick the scheduler divides each core's time
// proportionally to task duty cycles, synthesizes the retired-instruction /
// cache-miss / branch-miss profile of each slice from the task's behaviour,
// counts context switches — invoking the perf_event switch hook so the
// power-based namespace pays its real cost — and reports per-core activity
// for the energy, thermal and cpuidle models. Each runnable task's
// effective duty is computed once per tick and kept in its runqueue entry;
// a core with an empty runqueue idles the whole tick without further work.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/energy_model.h"
#include "kernel/perf_event.h"
#include "kernel/task.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace cleaks::kernel {

/// One task's share of a tick.
struct TaskTickShare {
  Task* task = nullptr;
  double active_seconds = 0.0;
  PerfSample sample;
};

class Scheduler {
 public:
  explicit Scheduler(int num_cores, SimDuration quantum = 10 * kMillisecond);

  /// Execute one tick of `dt` simulated time at core frequency `freq_hz`
  /// (the host lowers freq_hz under a RAPL power cap). `idle_cgroup` is the
  /// cgroup the swapper/idle task accounts to (the root cgroup).
  ///
  /// `closed_form_switches` (Host::run_tick's fast path) replaces the
  /// per-quantum context-switch loops with equivalent integer arithmetic on
  /// cores where every involved cgroup is perf-unmonitored — there the
  /// switch hook is provably a no-op, so per-task ctx_switch counts and the
  /// facility totals are bitwise identical. Cores touching a monitored
  /// cgroup always take the per-quantum loop so the PMU save/restore cost
  /// (Table III) is still paid switch by switch.
  void tick(const std::vector<std::shared_ptr<Task>>& tasks, double freq_hz,
            SimDuration dt, PerfEventSubsystem& perf, Cgroup& idle_cgroup,
            Rng& rng, bool closed_form_switches = false);

  /// Per-core activity of the last tick.
  [[nodiscard]] const std::vector<hw::TickActivity>& core_activity() const noexcept {
    return core_activity_;
  }
  /// Per-task shares of the last tick.
  [[nodiscard]] const std::vector<TaskTickShare>& task_shares() const noexcept {
    return task_shares_;
  }
  /// Runnable task count per core at the last tick (feeds sched_debug; a
  /// core with none was idle the whole tick).
  [[nodiscard]] const std::vector<int>& runnable_per_core() const noexcept {
    return runnable_per_core_;
  }
  /// Scheduling quantum (the CFS-like timeslice). The idle-coast anchor
  /// derives its constant context-switch rate from this: two switches per
  /// quantum on every core that hosts at least one runnable task.
  [[nodiscard]] SimDuration quantum() const noexcept { return quantum_; }

  [[nodiscard]] std::uint64_t total_context_switches() const noexcept {
    return total_ctx_switches_;
  }
  [[nodiscard]] std::uint64_t total_migrations() const noexcept {
    return total_migrations_;
  }
  [[nodiscard]] int num_cores() const noexcept { return num_cores_; }

  /// Move the last tick's runnable tasks from overloaded cores to
  /// underloaded ones within their cpusets, in task-table order; returns
  /// the number of migrations performed. Call it after tick(), before the
  /// task table changes.
  int rebalance();

 private:
  /// A runnable task and its duty for this tick.
  struct RunqueueEntry {
    Task* task = nullptr;
    double duty = 0.0;  ///< effective_duty(*task), computed once per tick
  };

  [[nodiscard]] static double effective_duty(const Task& task) noexcept;

  int num_cores_;
  SimDuration quantum_;
  std::vector<hw::TickActivity> core_activity_;
  std::vector<TaskTickShare> task_shares_;
  std::vector<int> runnable_per_core_;
  // Scratch, reused each tick: the runnable tasks in task-table order, the
  // same entries grouped by core (table order within a core), and where
  // each core's group starts (num_cores + 1 offsets).
  std::vector<RunqueueEntry> runnable_;
  std::vector<RunqueueEntry> runqueues_;
  std::vector<std::size_t> queue_start_;
  std::uint64_t total_ctx_switches_ = 0;
  std::uint64_t total_migrations_ = 0;
};

}  // namespace cleaks::kernel
