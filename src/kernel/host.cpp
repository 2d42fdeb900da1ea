#include "kernel/host.h"

#include <algorithm>
#include <cmath>

#include "hw/idle_coast.h"
#include "obs/events.h"

namespace cleaks::kernel {
namespace {

constexpr double kUserHz = 100.0;  ///< jiffies per second, as in the kernel
/// Relative Gaussian noise on RAPL reads.
constexpr double kRaplMeasurementNoise = 0.01;

std::string make_boot_id(Rng& rng) {
  // Canonical UUID v4 text form.
  return rng.hex_string(8) + "-" + rng.hex_string(4) + "-4" +
         rng.hex_string(3) + "-" + rng.hex_string(4) + "-" +
         rng.hex_string(12);
}

}  // namespace

Host::Host(std::string name, hw::HardwareSpec spec, std::uint64_t seed,
           SimTime boot_time)
    : name_(std::move(name)),
      spec_(std::move(spec)),
      rng_base_(seed),
      rng_(rng_base_.fork("host-ticks")),
      now_(boot_time),
      energy_model_(spec_.energy),
      thermal_(spec_.num_cores),
      cpuidle_(spec_.num_cores, spec_.cpuidle_states),
      sched_(spec_.num_cores),
      kstate_() {
  effective_freq_hz_ = spec_.freq_ghz * 1e9;
  pkg_core_j_.resize(static_cast<std::size_t>(spec_.num_packages), 0.0);
  pkg_dram_j_.resize(static_cast<std::size_t>(spec_.num_packages), 0.0);

  if (spec_.has_rapl) {
    rapl_.reserve(static_cast<std::size_t>(spec_.num_packages));
    for (int pkg = 0; pkg < spec_.num_packages; ++pkg) {
      rapl_.emplace_back(pkg, spec_.has_dram_rapl);
    }
  }

  init_ns_ = ns_registry_.make_init(name_, {"eth0", "eth1", "docker0"});

  Rng boot_rng = rng_base_.fork("boot");
  kstate_.boot_id = make_boot_id(boot_rng);
  kstate_.boot_time = boot_time;
  kstate_.modules =
      KernelState::default_modules(spec_.has_rapl, spec_.has_coretemp);
  kstate_.cpu_times.resize(static_cast<std::size_t>(spec_.num_cores));
  kstate_.schedstat.resize(static_cast<std::size_t>(spec_.num_cores));
  kstate_.numa.resize(static_cast<std::size_t>(std::max(1, spec_.numa_nodes)));
  kstate_.mem_total_kb = spec_.memory_bytes >> 10;
  kstate_.mem_free_kb = kstate_.mem_total_kb;
  // ext4 block groups on the root disk (free blocks per group).
  Rng fs_rng = rng_base_.fork("ext4");
  kstate_.ext4_group_free_blocks.resize(64);
  for (auto& free_blocks : kstate_.ext4_group_free_blocks) {
    free_blocks = fs_rng.uniform_u64(2000, 32768);
  }
  kstate_.sched_domain_lb_cost.assign(
      static_cast<std::size_t>(spec_.num_cores), {8000, 17000});
  kstate_.entropy_avail = static_cast<int>(fs_rng.uniform_u64(2800, 3600));
  kstate_.inode_nr = fs_rng.uniform_u64(150000, 260000);
  kstate_.dentry_nr = kstate_.inode_nr + fs_rng.uniform_u64(20000, 60000);
  kstate_.dentry_unused = kstate_.dentry_nr - fs_rng.uniform_u64(5000, 15000);

  // A host always has background system tasks (systemd, kworkers, sshd,
  // dockerd) that keep counters moving the way a real idle server does.
  static constexpr struct {
    const char* comm;
    double duty;
    double io;
    int locks;
  } kSystemTasks[] = {
      {"systemd", 0.002, 2.0, 1},   {"kworker/u8:1", 0.004, 8.0, 0},
      {"rcu_sched", 0.001, 0.0, 0}, {"sshd", 0.0005, 0.5, 0},
      {"dockerd", 0.006, 4.0, 2},   {"containerd", 0.003, 1.0, 1},
  };
  for (const auto& sys_task : kSystemTasks) {
    SpawnOptions options;
    options.comm = sys_task.comm;
    options.behavior.duty_cycle = sys_task.duty;
    options.behavior.ipc = 0.8;
    options.behavior.cache_miss_per_kinst = 4.0;
    options.behavior.branch_miss_per_kinst = 6.0;
    options.behavior.io_rate_per_s = sys_task.io;
    options.behavior.rss_bytes = 30ULL << 20;
    options.behavior.file_locks = sys_task.locks;  // pid files etc.
    spawn_task(options);
  }
  baseline_task_count_ = tasks_.size();
  update_memory_accounting();
}

std::shared_ptr<Task> Host::spawn_task(const SpawnOptions& options) {
  auto task = std::make_shared<Task>();
  task->host_pid = next_pid_++;
  task->comm = options.comm;
  task->container_id = options.container_id;
  task->ns = options.ns != nullptr ? *options.ns : init_ns_;
  task->ns_pid = task->ns.pid == init_ns_.pid ? task->host_pid
                                              : task->ns.pid->allocate_pid();
  task->cgroup = options.cgroup ? options.cgroup : cgroups_.root();
  task->behavior = options.behavior;
  task->start_time = now_;
  task->allowed_cpus = options.allowed_cpus;
  const auto& allowed = !options.allowed_cpus.empty()
                            ? options.allowed_cpus
                            : task->cgroup->cpuset.cpus;
  // Place on the least-loaded allowed core, counting the live task table
  // (not last tick's runqueues) so that a burst of spawns spreads out.
  std::vector<int> load(static_cast<std::size_t>(spec_.num_cores), 0);
  for (const auto& existing : tasks_) {
    if (existing->running && existing->behavior.duty_cycle > 0.0 &&
        existing->cpu >= 0 && existing->cpu < spec_.num_cores) {
      ++load[static_cast<std::size_t>(existing->cpu)];
    }
  }
  int best_core = -1;
  auto consider = [&](int core) {
    if (core < 0 || core >= spec_.num_cores) return;
    if (best_core < 0 || load[static_cast<std::size_t>(core)] <
                             load[static_cast<std::size_t>(best_core)]) {
      best_core = core;
    }
  };
  if (allowed.empty()) {
    for (int core = 0; core < spec_.num_cores; ++core) consider(core);
  } else {
    for (int core : allowed) consider(core);
  }
  task->cpu = best_core < 0 ? 0 : best_core;
  perf_.on_task_fork(task->cgroup.get(), task->cpu);
  tasks_.push_back(task);
  ++kstate_.processes_forked;
  update_memory_accounting();
  ++generation_;
  return task;
}

bool Host::kill_task(HostPid pid) {
  auto it = std::find_if(tasks_.begin(), tasks_.end(), [&](const auto& task) {
    return task->host_pid == pid;
  });
  if (it == tasks_.end()) return false;
  (*it)->running = false;
  tasks_.erase(it);
  update_memory_accounting();
  ++generation_;
  return true;
}

std::shared_ptr<Task> Host::find_task(HostPid pid) const {
  auto it = std::find_if(tasks_.begin(), tasks_.end(), [&](const auto& task) {
    return task->host_pid == pid;
  });
  return it == tasks_.end() ? nullptr : *it;
}

void Host::seed_prior_uptime(SimDuration prior_uptime) {
  ++generation_;
  const double prior_sec = to_seconds(prior_uptime);
  const double avg_util = 0.20;
  auto& ks = kstate_;
  ks.uptime_ns = prior_uptime;
  ks.idle_time_ns = static_cast<std::uint64_t>(
      prior_sec * spec_.num_cores * (1.0 - avg_util) * 1e9);
  for (auto& times : ks.cpu_times) {
    const auto busy = static_cast<std::uint64_t>(prior_sec * avg_util * 100.0);
    times.user = busy * 9 / 10;
    times.system = busy / 10;
    times.idle =
        static_cast<std::uint64_t>(prior_sec * (1.0 - avg_util) * 100.0);
    times.iowait = static_cast<std::uint64_t>(prior_sec * 0.5);
  }
  const auto jiffies = static_cast<std::uint64_t>(prior_sec * 100.0);
  for (std::size_t i = 0; i < kIrqLines.size(); ++i) {
    if (kIrqLines[i].kind == IrqKind::kLocalTimer) {
      ks.lockstep.irqs[i] = {jiffies, 0};
    }
  }
  ks.total_interrupts =
      jiffies * static_cast<std::uint64_t>(2 * spec_.num_cores);
  ks.total_ctxt_switches = static_cast<std::uint64_t>(prior_sec * 1800.0);
  ks.processes_forked = static_cast<std::uint64_t>(prior_sec / 2.5);
  for (auto& row : ks.lockstep.softirqs) row = {jiffies, 0};
  ks.lockstep.schedule_called = static_cast<std::uint64_t>(prior_sec * 120.0);
  for (auto& sstat : ks.schedstat) {
    sstat.run_time_ns =
        static_cast<std::uint64_t>(prior_sec * avg_util * 1e9);
    sstat.timeslices = static_cast<std::uint64_t>(prior_sec * 25.0);
  }
  // Energy history: idle floor plus the average-utilization dynamic share.
  if (spec_.has_rapl) {
    const double idle_w = spec_.energy.p_core_idle_w * spec_.num_cores +
                          spec_.energy.p_uncore_w + spec_.energy.p_dram_idle_w;
    const double dynamic_w = idle_w * 0.6 * avg_util / 0.2;
    const double pkg_j =
        (idle_w + dynamic_w) * prior_sec / spec_.num_packages;
    for (auto& pkg : rapl_) {
      pkg.package().add_energy_j(pkg_j);
      pkg.core().add_energy_j(pkg_j * 0.45);
      if (spec_.has_dram_rapl) pkg.dram().add_energy_j(pkg_j * 0.2);
    }
  }
  // NUMA counters accumulated over the host's life.
  for (auto& numa : kstate_.numa) {
    const auto pages = static_cast<std::uint64_t>(prior_sec * avg_util * 2e5 /
                                                  kstate_.numa.size());
    numa.numa_hit = pages;
    numa.local_node = pages * 96 / 100;
    numa.other_node = pages * 4 / 100;
    numa.interleave_hit = pages / 1000;
    if (kstate_.numa.size() > 1) numa.numa_miss = pages / 50;
  }
  // cpuidle residency: most deep-state time, entered ~40 times a second.
  const int deepest = cpuidle_.num_states() - 1;
  for (int core = 0; core < spec_.num_cores; ++core) {
    cpuidle_.seed(core, deepest,
                  static_cast<std::uint64_t>(prior_sec * 40.0),
                  static_cast<std::uint64_t>(prior_sec * (1.0 - avg_util) *
                                             0.9 * 1e6));
    if (deepest > 0) {
      cpuidle_.seed(core, 1, static_cast<std::uint64_t>(prior_sec * 15.0),
                    static_cast<std::uint64_t>(prior_sec * (1.0 - avg_util) *
                                               0.1 * 1e6));
    }
  }
}

const Host::TickFactors& Host::factors_for(SimDuration dt) {
  if (!factors_.valid || factors_.dt != dt) {
    const double dt_sec = to_seconds(dt);
    factors_.dt = dt;
    factors_.thermal_decay = hw::thermal_decay(dt_sec);
    factors_.load1_factor = std::exp(-dt_sec / 60.0);
    factors_.load5_factor = std::exp(-dt_sec / 300.0);
    factors_.load15_factor = std::exp(-dt_sec / 900.0);
    factors_.valid = true;
  }
  return factors_;
}

void Host::advance(SimDuration duration) {
  SimDuration remaining = duration;
  while (remaining > 0) {
    const SimDuration dt = std::min(remaining, tick_duration_);
    run_tick(dt);
    remaining -= dt;
  }
}

// --- analytic idle coasting ---------------------------------------------

bool Host::coast_eligible() const noexcept {
  return tasks_.size() == baseline_task_count_ &&
         spec_.rapl_power_cap_w == 0.0 &&
         effective_freq_hz_ == spec_.freq_ghz * 1e9;
}

void Host::begin_coast_() {
  CoastEpisode& c = coast_;
  c.active = true;
  c.t0 = now_;
  c.materialized = 0;
  c.pending = 0;

  // Rates in force while idle: pure functions of the frozen task table and
  // the energy model — no RNG anywhere in the regime.
  c.io_rate_per_s = 0.0;
  c.load_target = 0.0;
  int runnable = 0;
  std::vector<char> core_busy(static_cast<std::size_t>(spec_.num_cores), 0);
  for (const auto& task : tasks_) {
    c.io_rate_per_s += task->behavior.io_rate_per_s;
    c.load_target += std::min(1.0, task->behavior.duty_cycle);
    if (task->behavior.duty_cycle > 0.0) {
      ++runnable;
      if (task->cpu >= 0 && task->cpu < spec_.num_cores) {
        core_busy[static_cast<std::size_t>(task->cpu)] = 1;
      }
    }
  }
  int busy_cores = 0;
  for (char busy : core_busy) busy_cores += busy;
  // Two switches per quantum (in and out of the daemon) on every core that
  // hosts at least one runnable task.
  c.ctxt_rate_per_s = 2.0 * busy_cores / to_seconds(sched_.quantum());

  // Noise-free idle power: exactly the idle floor of integrate_energy with
  // zero activity and the measurement-noise factor pinned at 1.
  c.core_watts.assign(static_cast<std::size_t>(spec_.num_packages), 0.0);
  for (int core = 0; core < spec_.num_cores; ++core) {
    c.core_watts[static_cast<std::size_t>(package_of_core(core))] +=
        spec_.energy.p_core_idle_w;
  }
  c.dram_watts = spec_.energy.p_dram_idle_w;
  c.pkg_watts.assign(static_cast<std::size_t>(spec_.num_packages), 0.0);
  double total_w = 0.0;
  for (int pkg = 0; pkg < spec_.num_packages; ++pkg) {
    const auto i = static_cast<std::size_t>(pkg);
    c.pkg_watts[i] = c.core_watts[i] + c.dram_watts + spec_.energy.p_uncore_w;
    total_w += c.pkg_watts[i];
  }

  // Entering the regime pins the per-tick observables that legacy ticks
  // refresh: the runnable count, the sampled VFS table size and the
  // constant idle power (set here, so power_w() reads the idle power from
  // the first coasted step on while that time is still deferred).
  kstate_.procs_running = std::max(1, runnable);
  kstate_.procs_blocked = c.io_rate_per_s > 200.0 ? 1 : 0;
  kstate_.file_nr = 900 + 32 * tasks_.size() + 32;
  last_tick_power_w_ = total_w;

  // Snapshots of what materialize_coast_() advances.
  const auto& ks = kstate_;
  c.uptime_ns = ks.uptime_ns;
  c.idle_time_ns = ks.idle_time_ns;
  c.lockstep = ks.lockstep;
  c.total_interrupts = ks.total_interrupts;
  c.total_ctxt_switches = ks.total_ctxt_switches;
  c.load1 = ks.load1;
  c.load5 = ks.load5;
  c.load15 = ks.load15;
  c.rapl.clear();
  for (auto& pkg : rapl_) {
    c.rapl.push_back(pkg.package().state());
    c.rapl.push_back(pkg.core().state());
    c.rapl.push_back(pkg.dram().state());
  }
  const int deepest = cpuidle_.num_states() - 1;
  c.cores.assign(static_cast<std::size_t>(spec_.num_cores), {});
  for (int core = 0; core < spec_.num_cores; ++core) {
    const auto i = static_cast<std::size_t>(core);
    c.cores[i].idle_jiffies = ks.cpu_times[i].idle;
    c.cores[i].sched_goidle = ks.schedstat[i].sched_goidle;
    c.cores[i].temp_c = thermal_.temp_c(core);
    if (deepest >= 0) {
      c.cores[i].deep_idle = {cpuidle_.usage(core, deepest),
                              cpuidle_.time_us(core, deepest)};
    }
  }

  c.expected_generation = generation_;
}

void Host::materialize_coast_(SimDuration elapsed) {
  const CoastEpisode& c = coast_;
  const double e_sec = to_seconds(elapsed);
  const std::uint64_t jiffies = elapsed / (kSecond / 100);

  // Write every anchored field as the anchor plus a pure function of
  // `elapsed`; state(E) never depends on earlier materialisations, which
  // is what makes any tick split of the interval bitwise-equivalent.
  auto& ks = kstate_;
  ks.uptime_ns = c.uptime_ns + elapsed;
  ks.idle_time_ns =
      c.idle_time_ns + elapsed * static_cast<std::uint64_t>(spec_.num_cores);
  for (std::size_t i = 0; i < c.cores.size(); ++i) {
    ks.cpu_times[i].idle = c.cores[i].idle_jiffies + jiffies;
    ks.schedstat[i].sched_goidle = c.cores[i].sched_goidle + jiffies;
  }
  ks.lockstep = c.lockstep;
  ks.total_interrupts = c.total_interrupts;
  // Nothing migrates while nothing runs.
  advance_interrupts_(jiffies, elapsed / kSecond, c.io_rate_per_s, e_sec,
                      /*migrations=*/0);
  ks.total_ctxt_switches = c.total_ctxt_switches +
      static_cast<std::uint64_t>(c.ctxt_rate_per_s * e_sec);
  // loadavg: the closed-form solution of the kernel's per-tick decay
  // toward a constant target (sum of duty cycles — the expectation the
  // legacy path samples with Bernoulli draws).
  ks.load1 = c.load_target +
             (c.load1 - c.load_target) * std::exp(-e_sec / 60.0);
  ks.load5 = c.load_target +
             (c.load5 - c.load_target) * std::exp(-e_sec / 300.0);
  ks.load15 = c.load_target +
              (c.load15 - c.load_target) * std::exp(-e_sec / 900.0);

  for (std::size_t i = 0; i < rapl_.size(); ++i) {
    auto& pkg = rapl_[i];
    hw::rapl_coast(pkg.package().mutable_state(), c.rapl[3 * i + 0],
                   c.pkg_watts[i], e_sec, pkg.package().max_energy_range_uj());
    hw::rapl_coast(pkg.core().mutable_state(), c.rapl[3 * i + 1],
                   c.core_watts[i], e_sec, pkg.core().max_energy_range_uj());
    if (spec_.has_dram_rapl) {
      hw::rapl_coast(pkg.dram().mutable_state(), c.rapl[3 * i + 2],
                     c.dram_watts, e_sec, pkg.dram().max_energy_range_uj());
    }
  }
  if (spec_.num_cores > 0) {
    const double retention = hw::thermal_coast_retention(e_sec);
    double* temps = thermal_.mutable_temps();
    for (std::size_t i = 0; i < c.cores.size(); ++i) {
      temps[i] =
          hw::kAmbientC + (c.cores[i].temp_c - hw::kAmbientC) * retention;
    }
  }
  const int deepest = cpuidle_.num_states() - 1;
  if (deepest >= 0) {
    const hw::CpuIdleCoastDelta idle = hw::cpuidle_coast(elapsed, e_sec);
    for (int core = 0; core < spec_.num_cores; ++core) {
      const auto& anchor = c.cores[static_cast<std::size_t>(core)].deep_idle;
      cpuidle_.seed(core, deepest, anchor.usage + idle.usage,
                    anchor.time_us + idle.time_us);
    }
  }

  now_ = c.t0 + elapsed;
}

void Host::defer_idle(SimDuration duration) {
  if (!coast_active()) begin_coast_();
  coast_.pending += duration;
}

void Host::coast_sync() {
  if (coast_.pending == 0) return;
  // Pending time only exists on a live episode: every mutation path syncs
  // before invalidating (every non-const Server member settles first).
  coast_.materialized += coast_.pending;
  coast_.pending = 0;
  materialize_coast_(coast_.materialized);
}

void Host::run_tick(SimDuration dt) {
  const std::uint64_t ctx_before = sched_.total_context_switches();
  const std::uint64_t mig_before = sched_.total_migrations();

  sched_.tick(tasks_, effective_freq_hz_, dt, perf_, *cgroups_.root(), rng_,
              /*closed_form_switches=*/true);

  // Charge cgroup accounting from this tick's shares.
  for (const auto& share : sched_.task_shares()) {
    Task& task = *share.task;
    auto& cgroup = *task.cgroup;
    if (task.cgroup != cgroups_.root()) ++nonroot_usage_marker_;
    cgroup.cpuacct.ensure_cpus(spec_.num_cores);
    cgroup.cpuacct
        .usage_ns_per_cpu[static_cast<std::size_t>(task.cpu)] +=
        static_cast<std::uint64_t>(share.active_seconds * 1e9);
    cgroup.cpuacct.total_cycles += share.sample.cycles;
    PerfEventSubsystem::charge(cgroup, task.cpu, share.sample);
  }

  const double dt_sec = to_seconds(dt);
  // The core pass needs the IO rate (iowait); the loadavg draws in
  // update_kernel_counters must still follow the RAPL noise draws.
  double total_io_rate = 0.0;
  for (const auto& task : tasks_) total_io_rate += task->behavior.io_rate_per_s;
  // The thermal step's exp() is computed once per distinct dt instead of
  // every tick (identical inputs, identical bits).
  const hw::TickActivity total =
      step_cores_(dt_sec, total_io_rate, factors_for(dt).thermal_decay);
  integrate_energy(dt_sec);
  update_kernel_counters(dt, total_io_rate, total.instructions, ctx_before,
                         mig_before);
  apply_power_capping();

  // Behavior telemetry: one aggregate event per stream per tick, stamped
  // at the end-of-tick instant. Aggregate switch counts (not per-switch
  // events) keep the stream identical whether the scheduler took the
  // closed-form shortcut or the per-quantum hook loop on any given core.
  if (auto& bus = obs::EventBus::global(); bus.enabled()) {
    const SimTime t = now_ + dt;
    bus.emit(obs::EventKind::kCtxSwitch, t, event_source_,
             sched_.total_context_switches() - ctx_before,
             sched_.total_migrations() - mig_before);
    bus.emit(obs::EventKind::kPerfEvent, t, event_source_,
             static_cast<std::uint64_t>(total.instructions),
             static_cast<std::uint64_t>(total.active_seconds * 1e6));
    bus.emit(obs::EventKind::kRaplSample, t, event_source_,
             static_cast<std::uint64_t>(last_tick_power_w_ * 1000.0),
             rapl_.empty() ? 0 : rapl_[0].package().energy_uj());
    double hottest = 0.0;
    double coolest = 0.0;
    if (spec_.num_cores > 0) {
      hottest = coolest = thermal_.temp_c(0);
      for (int core = 1; core < spec_.num_cores; ++core) {
        const double temp = thermal_.temp_c(core);
        hottest = std::max(hottest, temp);
        coolest = std::min(coolest, temp);
      }
    }
    bus.emit(obs::EventKind::kThermalSample, t, event_source_,
             static_cast<std::uint64_t>(hottest * 1000.0),
             static_cast<std::uint64_t>(coolest * 1000.0));
  }

  if (ticks_run_ % 10 == 9) sched_.rebalance();
  now_ += dt;
  ++ticks_run_;
  ++generation_;
}

int Host::package_of_core(int core) const noexcept {
  const int per_pkg = std::max(1, spec_.cores_per_package);
  return std::min(core / per_pkg, spec_.num_packages - 1);
}

Host::CoreTick Host::core_tick_(const hw::TickActivity& activity,
                                double dt_sec,
                                double total_io_rate) const noexcept {
  CoreTick t;
  t.energy = energy_model_.core_activity_energy(activity);
  t.power_w = dt_sec > 0 ? t.energy.core_j / dt_sec : 0.0;
  t.idle_us = static_cast<std::uint64_t>(activity.idle_seconds * 1e6);
  t.idle_ns = static_cast<std::uint64_t>(activity.idle_seconds * 1e9);
  const auto busy_jiffies =
      static_cast<std::uint64_t>(activity.active_seconds * kUserHz);
  t.jiffies.user = busy_jiffies * 9 / 10;
  t.jiffies.system = busy_jiffies / 10;
  const double iowait_share =
      std::min(0.3, total_io_rate / 4000.0) * activity.idle_seconds;
  t.jiffies.iowait = static_cast<std::uint64_t>(iowait_share * kUserHz);
  t.jiffies.idle = static_cast<std::uint64_t>(
      (activity.idle_seconds - iowait_share) * kUserHz);
  t.sched_goidle = activity.idle_seconds > 0.0 ? 1 : 0;
  t.run_time_ns = static_cast<std::uint64_t>(activity.active_seconds * 1e9);
  t.wait_time_ns = static_cast<std::uint64_t>(
      activity.active_seconds * 1e8);  // ~10% queueing
  t.timeslices = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(activity.active_seconds * kUserHz));
  return t;
}

hw::TickActivity Host::step_cores_(double dt_sec, double total_io_rate,
                                   double decay) {
  // Member scratch, zeroed in place: no heap allocation per tick.
  pkg_core_j_.assign(pkg_core_j_.size(), 0.0);
  pkg_dram_j_.assign(pkg_dram_j_.size(), 0.0);
  // A core with an empty runqueue idled the whole tick (Scheduler::tick),
  // so every idle core shares one set of deltas.
  const CoreTick idle = core_tick_(hw::TickActivity{.idle_seconds = dt_sec},
                                  dt_sec, total_io_rate);
  CoreTick busy;
  auto& ks = kstate_;
  hw::TickActivity total;
  for (int core = 0; core < spec_.num_cores; ++core) {
    const auto i = static_cast<std::size_t>(core);
    const hw::TickActivity& activity = sched_.core_activity()[i];
    const CoreTick& t =
        sched_.runnable_per_core()[i] == 0
            ? idle
            : (busy = core_tick_(activity, dt_sec, total_io_rate));
    const auto pkg = static_cast<std::size_t>(package_of_core(core));
    pkg_core_j_[pkg] += t.energy.core_j;
    pkg_dram_j_[pkg] += t.energy.dram_j;
    thermal_.step_core(i, t.power_w, decay);
    cpuidle_.record_idle(core, t.idle_us);
    ks.cpu_times[i] = ks.cpu_times[i] + t.jiffies;
    ks.idle_time_ns += t.idle_ns;
    auto& sstat = ks.schedstat[i];
    sstat.sched_goidle += t.sched_goidle;
    sstat.run_time_ns += t.run_time_ns;
    sstat.wait_time_ns += t.wait_time_ns;
    sstat.timeslices += t.timeslices;
    total.instructions += activity.instructions;
    total.active_seconds += activity.active_seconds;
  }
  return total;
}

void Host::integrate_energy(double dt_sec) {
  double total_package_j = 0.0;
  const hw::TickEnergy bg = energy_model_.background_energy(dt_sec);
  for (int pkg = 0; pkg < spec_.num_packages; ++pkg) {
    const auto i = static_cast<std::size_t>(pkg);
    // RAPL measurement noise: small multiplicative error per integration.
    const double noise = std::clamp(
        rng_.gaussian(1.0, kRaplMeasurementNoise), 0.9, 1.1);
    const double core_j = pkg_core_j_[i] * noise;
    const double dram_j = (pkg_dram_j_[i] + bg.dram_j) * noise;
    const double package_j =
        (pkg_core_j_[i] + pkg_dram_j_[i] + bg.package_j) * noise;
    if (spec_.has_rapl && i < rapl_.size()) {
      rapl_[i].core().add_energy_j(core_j);
      if (spec_.has_dram_rapl) rapl_[i].dram().add_energy_j(dram_j);
      rapl_[i].package().add_energy_j(package_j);
    }
    total_package_j += package_j;
  }
  last_tick_power_w_ = dt_sec > 0 ? total_package_j / dt_sec : 0.0;
}

double Host::lifetime_energy_j() const noexcept {
  double total = 0.0;
  for (const auto& pkg : rapl_) total += pkg.package().lifetime_energy_j();
  return total;
}

void Host::apply_power_capping() {
  const double nominal = spec_.freq_ghz * 1e9;
  if (spec_.rapl_power_cap_w <= 0.0) {
    // Cap lifted: recover toward nominal frequency.
    if (effective_freq_hz_ < nominal) {
      effective_freq_hz_ = std::min(nominal, effective_freq_hz_ * 1.03);
    }
    return;
  }
  if (last_tick_power_w_ > spec_.rapl_power_cap_w) {
    // Immediate (ms-level) frequency throttle, 5% per tick, floor at 50%.
    effective_freq_hz_ = std::max(nominal * 0.5, effective_freq_hz_ * 0.95);
  } else if (effective_freq_hz_ < nominal) {
    effective_freq_hz_ = std::min(nominal, effective_freq_hz_ * 1.03);
  }
}

void Host::advance_interrupts_(std::uint64_t jiffies,
                               std::uint64_t whole_seconds,
                               double io_rate_per_s, double seconds,
                               std::uint64_t migrations) {
  // Local timer per cpu per jiffy, device interrupts from IO on cpu0,
  // reschedule IPIs per migration on every cpu. Lines dispatch on their
  // kind and softirq rows by index.
  auto& ks = kstate_;
  auto& lockstep = ks.lockstep;
  const auto cpus = static_cast<std::uint64_t>(spec_.num_cores);
  const auto nic_events =
      static_cast<std::uint64_t>((40.0 + io_rate_per_s * 0.4) * seconds);
  const auto disk_events =
      static_cast<std::uint64_t>(io_rate_per_s * 0.6 * seconds);
  for (std::size_t i = 0; i < kIrqLines.size(); ++i) {
    auto& line = lockstep.irqs[i];
    switch (kIrqLines[i].kind) {
      case IrqKind::kLocalTimer:
        line.every_cpu += jiffies;
        ks.total_interrupts += jiffies * cpus;
        break;
      case IrqKind::kNic:
        line.cpu0_extra += nic_events;
        ks.total_interrupts += nic_events;
        break;
      case IrqKind::kDisk:
        line.cpu0_extra += disk_events;
        ks.total_interrupts += disk_events;
        break;
      case IrqKind::kResched:
        line.every_cpu += migrations;
        ks.total_interrupts += migrations * cpus;
        break;
      case IrqKind::kOther:
        break;
    }
  }
  auto& softirqs = lockstep.softirqs;
  softirqs[softirq::kTimer].every_cpu += jiffies;
  softirqs[softirq::kSched].every_cpu += jiffies;
  softirqs[softirq::kRcu].every_cpu += jiffies / 2;
  softirqs[softirq::kHrtimer].every_cpu += jiffies / 10;
  softirqs[softirq::kNetRx].cpu0_extra += nic_events;
  softirqs[softirq::kBlock].cpu0_extra += disk_events;
  lockstep.irq_jiffies += whole_seconds;  // ~1 jiffy/100s of irq
  lockstep.softirq_jiffies += whole_seconds;
  lockstep.schedule_called += jiffies;
}

void Host::update_kernel_counters(SimDuration dt, double total_io_rate,
                                  double instructions,
                                  std::uint64_t ctx_before,
                                  std::uint64_t migrations_before) {
  const double dt_sec = to_seconds(dt);
  auto& ks = kstate_;
  ks.uptime_ns += dt;

  int runnable = 0;
  // loadavg samples the *instantaneous* runnable count — a task with duty
  // d is runnable at a sampling instant with probability d, which is what
  // gives real load averages their jitter.
  int sampled_runnable = 0;
  for (const auto& task : tasks_) {
    if (task->behavior.duty_cycle > 0.0) ++runnable;
    if (rng_.bernoulli(std::min(1.0, task->behavior.duty_cycle))) {
      ++sampled_runnable;
    }
  }

  advance_interrupts_(
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(dt_sec * kUserHz)),
      static_cast<std::uint64_t>(dt_sec), total_io_rate, dt_sec,
      sched_.total_migrations() - migrations_before);

  ks.total_ctxt_switches += sched_.total_context_switches() - ctx_before;
  ks.procs_running = std::max(1, runnable);
  ks.procs_blocked = total_io_rate > 200.0 ? 1 : 0;

  // loadavg: kernel-style exponential decay toward the sampled runnable
  // count (a 5%-duty daemon is runnable in ~5% of samples). The per-dt
  // factor cache memoizes exp(-dt/T) — same dt, same double.
  const double active = static_cast<double>(sampled_runnable);
  auto decay = [&](double load, double factor) {
    return load * factor + active * (1.0 - factor);
  };
  const TickFactors& f = factors_for(dt);
  ks.load1 = decay(ks.load1, f.load1_factor);
  ks.load5 = decay(ks.load5, f.load5_factor);
  ks.load15 = decay(ks.load15, f.load15_factor);

  // Entropy pool: slow accrual from interrupt timing, drained by IO and
  // process creation (which is why Table II marks it indirectly
  // manipulable: a co-resident tenant's activity drains it).
  ks.entropy_avail += static_cast<int>(rng_.uniform_i64(-18, 44));
  ks.entropy_avail -=
      static_cast<int>(std::min(40.0, total_io_rate * 0.004 * dt_sec));
  ks.entropy_avail = std::clamp(ks.entropy_avail, 128, ks.poolsize);

  // VFS counters drift with task count and IO.
  ks.file_nr = 900 + 32 * tasks_.size() + rng_.uniform_u64(0, 64);
  ks.inode_nr += rng_.uniform_u64(0, 3);
  ks.dentry_nr += rng_.uniform_u64(0, 5);
  ks.dentry_unused += rng_.uniform_u64(0, 4);

  // ext4 allocator churn when IO is happening.
  if (total_io_rate > 0.0 && !ks.ext4_group_free_blocks.empty()) {
    const auto group = rng_.uniform_u64(0, ks.ext4_group_free_blocks.size() - 1);
    auto& free_blocks = ks.ext4_group_free_blocks[group];
    const std::int64_t delta = rng_.uniform_i64(-32, 32);
    const std::int64_t updated =
        std::clamp<std::int64_t>(static_cast<std::int64_t>(free_blocks) + delta,
                                 0, 32768);
    free_blocks = static_cast<std::uint64_t>(updated);
  }

  // NUMA: hits follow instruction flow; a small share crosses nodes.
  const auto pages = static_cast<std::uint64_t>(instructions / 50000.0);
  for (std::size_t node = 0; node < ks.numa.size(); ++node) {
    auto& numa = ks.numa[node];
    const std::uint64_t share = pages / ks.numa.size();
    numa.numa_hit += share;
    numa.local_node += share * 96 / 100;
    numa.other_node += share * 4 / 100;
    if (ks.numa.size() > 1) numa.numa_miss += share / 50;
  }

  // Load-balancer cost estimate drifts as in fair.c.
  for (auto& costs : ks.sched_domain_lb_cost) {
    costs[0] = std::max<std::uint64_t>(
        4000, costs[0] + static_cast<std::uint64_t>(rng_.uniform_i64(-200, 220)));
    costs[1] = std::max<std::uint64_t>(
        9000, costs[1] + static_cast<std::uint64_t>(rng_.uniform_i64(-350, 380)));
  }

  update_memory_accounting();
}

void Host::update_memory_accounting() {
  auto& ks = kstate_;
  std::uint64_t rss_kb = 0;
  for (const auto& task : tasks_) rss_kb += task->behavior.rss_bytes >> 10;
  const std::uint64_t kernel_base_kb = 600 * 1024;
  const std::uint64_t cached_kb = std::min<std::uint64_t>(
      ks.mem_total_kb / 5, 350000 + rss_kb / 4);
  ks.buffers_kb = 90000;
  ks.cached_kb = cached_kb;
  ks.slab_kb = 110000;
  const std::uint64_t used_kb =
      kernel_base_kb + rss_kb + ks.buffers_kb + ks.cached_kb + ks.slab_kb;
  ks.mem_free_kb =
      used_kb < ks.mem_total_kb ? ks.mem_total_kb - used_kb : 4096;
  ks.active_kb = rss_kb + cached_kb / 2;
  ks.inactive_kb = cached_kb / 2;
  ks.dirty_kb = 64 + rss_kb / 2048;
}

}  // namespace cleaks::kernel
