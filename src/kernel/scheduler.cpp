#include "kernel/scheduler.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

namespace cleaks::kernel {

Scheduler::Scheduler(int num_cores, SimDuration quantum)
    : num_cores_(num_cores), quantum_(quantum) {
  if (num_cores <= 0) throw std::invalid_argument("Scheduler: cores <= 0");
  if (quantum == 0) throw std::invalid_argument("Scheduler: zero quantum");
  core_activity_.resize(static_cast<std::size_t>(num_cores));
  runnable_per_core_.resize(static_cast<std::size_t>(num_cores), 0);
  queue_start_.resize(static_cast<std::size_t>(num_cores) + 1, 0);
}

double Scheduler::effective_duty(const Task& task) noexcept {
  double duty = std::clamp(task.behavior.duty_cycle, 0.0, 1.0);
  if (task.cgroup && task.cgroup->cpu_quota >= 0.0) {
    duty = std::min(duty, task.cgroup->cpu_quota);
  }
  return duty;
}

void Scheduler::tick(const std::vector<std::shared_ptr<Task>>& tasks,
                     double freq_hz, SimDuration dt, PerfEventSubsystem& perf,
                     Cgroup& idle_cgroup, Rng& rng,
                     bool closed_form_switches) {
  const double dt_sec = to_seconds(dt);
  // Switches a core with work makes this tick: one per quantum, at least 1.
  const auto quanta = static_cast<std::uint64_t>(
      std::max<double>(1.0, static_cast<double>(dt) /
                                static_cast<double>(quantum_)));
  task_shares_.clear();
  runnable_.clear();
  std::fill(runnable_per_core_.begin(), runnable_per_core_.end(), 0);

  for (const auto& task : tasks) {
    if (!task || !task->running) continue;
    if (task->cpu < 0 || task->cpu >= num_cores_) continue;
    const double duty = effective_duty(*task);
    if (duty <= 0.0) continue;
    runnable_.push_back({task.get(), duty});
    ++runnable_per_core_[static_cast<std::size_t>(task->cpu)];
  }
  // Group by core, keeping table order within a core: a counting sort that
  // fills each core's range from its end, leaving queue_start_[c] at core
  // c's first entry.
  std::size_t end = 0;
  for (std::size_t core = 0; core < runnable_per_core_.size(); ++core) {
    end += static_cast<std::size_t>(runnable_per_core_[core]);
    queue_start_[core] = end;
  }
  queue_start_.back() = end;
  runqueues_.resize(end);
  for (auto it = runnable_.rbegin(); it != runnable_.rend(); ++it) {
    runqueues_[--queue_start_[static_cast<std::size_t>(it->task->cpu)]] = *it;
  }

  for (int core = 0; core < num_cores_; ++core) {
    const auto i = static_cast<std::size_t>(core);
    auto& activity = core_activity_[i];
    activity = hw::TickActivity{};
    if (runnable_per_core_[i] == 0) {
      activity.idle_seconds = dt_sec;
      continue;
    }
    const std::span<const RunqueueEntry> queue(
        runqueues_.data() + queue_start_[i],
        runqueues_.data() + queue_start_[i + 1]);

    double total_demand = 0.0;
    for (const RunqueueEntry& entry : queue) total_demand += entry.duty;
    const double scale = total_demand > 1.0 ? 1.0 / total_demand : 1.0;

    double busy_sec = 0.0;
    for (const RunqueueEntry& entry : queue) {
      Task* task = entry.task;
      const double jitter = std::clamp(rng.gaussian(1.0, 0.01), 0.9, 1.1);
      const double active = entry.duty * scale * dt_sec * jitter;
      TaskTickShare share;
      share.task = task;
      share.active_seconds = active;
      share.sample.cycles = active * freq_hz;
      share.sample.instructions =
          share.sample.cycles * task->behavior.ipc *
          std::clamp(rng.gaussian(1.0, 0.01), 0.9, 1.1);
      share.sample.cache_misses = share.sample.instructions *
                                  task->behavior.cache_miss_per_kinst / 1000.0;
      share.sample.branch_misses = share.sample.instructions *
                                   task->behavior.branch_miss_per_kinst /
                                   1000.0;
      busy_sec += active;
      activity.instructions += share.sample.instructions;
      activity.cycles += share.sample.cycles;
      activity.cache_misses += share.sample.cache_misses;
      activity.branch_misses += share.sample.branch_misses;
      task_shares_.push_back(share);
    }
    busy_sec = std::min(busy_sec, dt_sec);
    activity.active_seconds = busy_sec;
    activity.idle_seconds = dt_sec - busy_sec;

    // Context switches. With n > 1 runnable tasks the core round-robins at
    // quantum granularity between them; with exactly one partially-busy
    // task the switches are to/from the idle task (swapper), which lives in
    // the root cgroup — the inter-cgroup case that makes the power-based
    // namespace's switch hook expensive for single-copy workloads
    // (Table III, pipe-based context switching).
    std::uint64_t switches = 0;
    if (queue.size() > 1) {
      switches = quanta;
      // With no monitored cgroup on this core the switch hook no-ops for
      // every pair, so the per-quantum loop reduces to its stats update:
      // prev cycles through the queue, giving task i one switch per
      // s ≡ i (mod n) — i.e. quanta/n each plus one for the first
      // quanta%n tasks. Same integers, no 2·quanta virtual calls.
      bool closed = closed_form_switches;
      if (closed) {
        for (const RunqueueEntry& entry : queue) {
          if (entry.task->cgroup && entry.task->cgroup->perf.accounting_enabled) {
            closed = false;
            break;
          }
        }
      }
      if (closed) {
        const std::uint64_t n = queue.size();
        const std::uint64_t each = quanta / n;
        const std::uint64_t extra = quanta % n;
        for (std::uint64_t i = 0; i < n; ++i) {
          queue[i].task->stats.ctx_switches += each + (i < extra ? 1 : 0);
        }
      } else {
        for (std::uint64_t s = 0; s < switches; ++s) {
          Task* prev = queue[s % queue.size()].task;
          Task* next = queue[(s + 1) % queue.size()].task;
          perf.on_context_switch(prev->cgroup.get(), next->cgroup.get(), core);
          ++prev->stats.ctx_switches;
        }
      }
    } else if (queue.size() == 1 && busy_sec < dt_sec * 0.97) {
      // A genuinely saturated solo task never leaves the cpu; the small
      // per-tick jitter must not be mistaken for sleep/wake cycles.
      // Sleep/wake pairs against the idle task.
      switches = quanta;
      Task* task = queue.front().task;
      // The sleep/wake hook pair no-ops when the task lives in the idle
      // (root) cgroup itself, or when neither side is monitored.
      const bool closed =
          closed_form_switches &&
          (task->cgroup.get() == &idle_cgroup ||
           (!(task->cgroup && task->cgroup->perf.accounting_enabled) &&
            !idle_cgroup.perf.accounting_enabled));
      if (closed) {
        task->stats.ctx_switches += quanta;
      } else {
        for (std::uint64_t s = 0; s < switches; ++s) {
          perf.on_context_switch(task->cgroup.get(), &idle_cgroup, core);
          perf.on_context_switch(&idle_cgroup, task->cgroup.get(), core);
          ++task->stats.ctx_switches;
        }
      }
      switches *= 2;
    }
    total_ctx_switches_ += switches;
  }

  // Commit per-task accounting.
  for (auto& share : task_shares_) {
    Task& task = *share.task;
    task.stats.runtime_ns +=
        static_cast<std::uint64_t>(share.active_seconds * 1e9);
    task.stats.cycles += share.sample.cycles;
    task.stats.instructions += share.sample.instructions;
    task.stats.cache_misses += share.sample.cache_misses;
    task.stats.branch_misses += share.sample.branch_misses;
  }
}

int Scheduler::rebalance() {
  // Current load per core: the last tick's runqueue lengths.
  std::vector<int> load = runnable_per_core_;
  int migrations = 0;
  static const std::vector<int> kAnyCore;
  for (const RunqueueEntry& entry : runnable_) {
    Task* task = entry.task;
    const auto& allowed =
        !task->allowed_cpus.empty()
            ? task->allowed_cpus
            : (task->cgroup ? task->cgroup->cpuset.cpus : kAnyCore);
    int best = task->cpu;
    int best_load = load[static_cast<std::size_t>(task->cpu)];
    auto consider = [&](int core) {
      if (core < 0 || core >= num_cores_) return;
      if (load[static_cast<std::size_t>(core)] < best_load - 1) {
        best = core;
        best_load = load[static_cast<std::size_t>(core)];
      }
    };
    if (allowed.empty()) {
      for (int core = 0; core < num_cores_; ++core) consider(core);
    } else {
      for (int core : allowed) consider(core);
    }
    if (best != task->cpu) {
      --load[static_cast<std::size_t>(task->cpu)];
      ++load[static_cast<std::size_t>(best)];
      task->cpu = best;
      ++task->stats.migrations;
      ++total_migrations_;
      ++migrations;
    }
  }
  return migrations;
}

}  // namespace cleaks::kernel
