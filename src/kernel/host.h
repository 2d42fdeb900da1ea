// Host: one simulated physical server — hardware plus a running kernel.
//
// Host owns the hardware models (RAPL, thermal, cpuidle), the kernel
// subsystems (namespaces, cgroups, scheduler, perf_event), the task table
// and the global KernelState. advance() steps simulated time in ticks,
// during which the scheduler runs tasks, energy/thermal/idle models
// integrate, and every /proc- and /sys-visible counter is maintained. A
// tick walks the cores once, and every core the scheduler left idle shares
// one set of derived deltas.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hw/cpuidle.h"
#include "hw/energy_model.h"
#include "hw/rapl.h"
#include "hw/spec.h"
#include "hw/thermal.h"
#include "kernel/cgroup.h"
#include "kernel/kernel_state.h"
#include "kernel/namespaces.h"
#include "kernel/perf_event.h"
#include "kernel/scheduler.h"
#include "kernel/task.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace cleaks::kernel {

class Host {
 public:
  /// `boot_time` is the simulated instant the machine was powered on
  /// (uptime counts from here). `seed` drives all stochastic behaviour of
  /// this host, including its boot_id.
  Host(std::string name, hw::HardwareSpec spec, std::uint64_t seed,
       SimTime boot_time = 0);

  // Not copyable (tasks hold back-references via cgroup/namespace shares).
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  // --- time ---
  [[nodiscard]] SimTime now() const noexcept { return now_; }
  /// Tick granularity for advance(); smaller is finer but slower. Defaults
  /// to 100 ms, adequate for second-scale power traces; the defense
  /// evaluation uses finer ticks.
  void set_tick_duration(SimDuration tick) { tick_duration_ = tick; }
  [[nodiscard]] SimDuration tick_duration() const noexcept {
    return tick_duration_;
  }
  /// Advance simulated time by exactly `duration`: whole ticks of
  /// tick_duration() followed by one shorter final tick for any remainder
  /// (a `duration` below one tick runs a single partial tick). Durations
  /// are NOT rounded up — now() always lands on now() + duration, and a
  /// partial tick integrates physics over its true dt. Pinned by the
  /// AdvanceContract tests in tests/kernel_test.cpp.
  void advance(SimDuration duration);

  /// Pre-seed accumulators (uptime, jiffies, interrupts, RAPL counters,
  /// cpuidle residency) as if the host had already been up for
  /// `prior_uptime` at ~20% average utilization before the simulation
  /// begins. Call once, before the first advance().
  void seed_prior_uptime(SimDuration prior_uptime);

  // --- identity / hardware ---
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const hw::HardwareSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const KernelState& state() const noexcept { return kstate_; }
  [[nodiscard]] KernelState& mutable_state() noexcept {
    ++generation_;  // caller may change anything: ends a coast episode
    return kstate_;
  }
  [[nodiscard]] const hw::ThermalModel& thermal() const noexcept {
    return thermal_;
  }
  [[nodiscard]] const hw::CpuIdleAccounting& cpuidle() const noexcept {
    return cpuidle_;
  }
  [[nodiscard]] const std::vector<hw::RaplPackage>& rapl() const noexcept {
    return rapl_;
  }
  [[nodiscard]] std::vector<hw::RaplPackage>& mutable_rapl() noexcept {
    ++generation_;
    return rapl_;
  }

  // --- kernel subsystems ---
  [[nodiscard]] NamespaceRegistry& namespaces() noexcept { return ns_registry_; }
  [[nodiscard]] const NamespaceSet& init_ns() const noexcept { return init_ns_; }
  /// Mutable access for runtime-side changes to init namespaces (e.g. the
  /// host-side veth peer a container runtime adds to init_net).
  [[nodiscard]] NamespaceSet& mutable_init_ns() noexcept {
    ++generation_;
    return init_ns_;
  }
  [[nodiscard]] CgroupManager& cgroups() noexcept { return cgroups_; }
  [[nodiscard]] const CgroupManager& cgroups() const noexcept {
    return cgroups_;
  }
  [[nodiscard]] PerfEventSubsystem& perf() noexcept { return perf_; }
  [[nodiscard]] const Scheduler& scheduler() const noexcept { return sched_; }

  // --- tasks ---
  struct SpawnOptions {
    std::string comm;
    TaskBehavior behavior;
    std::string container_id;               ///< empty = host task
    std::shared_ptr<Cgroup> cgroup;         ///< nullptr = root cgroup
    const NamespaceSet* ns = nullptr;       ///< nullptr = init namespaces
    std::vector<int> allowed_cpus;          ///< empty = any core
  };
  std::shared_ptr<Task> spawn_task(const SpawnOptions& options);
  bool kill_task(HostPid pid);
  [[nodiscard]] std::shared_ptr<Task> find_task(HostPid pid) const;
  [[nodiscard]] const std::vector<std::shared_ptr<Task>>& tasks() const noexcept {
    return tasks_;
  }

  // --- power observability (simulator ground truth; the in-container view
  // goes through the fs module and may be namespaced by the defense) ---
  /// Whole-host package power during the last tick (W), including noise.
  [[nodiscard]] double last_tick_power_w() const noexcept {
    return last_tick_power_w_;
  }
  /// Lifetime host energy (J), all packages.
  [[nodiscard]] double lifetime_energy_j() const noexcept;
  /// Monotonic count of non-root cpuacct charges ever applied on this
  /// host. The provider's billing rollup compares it per server to find
  /// tenants whose usage may have moved since the last epoch — an
  /// unchanged marker proves every container cgroup's usage_ns is
  /// unchanged (the run_tick share loop is the only writer). Coast
  /// episodes never bump it (no scheduler runs while coasting), so the
  /// value is identical in parked and visit-all modes.
  [[nodiscard]] std::uint64_t nonroot_usage_marker() const noexcept {
    return nonroot_usage_marker_;
  }
  /// Current effective core frequency (Hz) after any RAPL capping.
  [[nodiscard]] double effective_freq_hz() const noexcept {
    return effective_freq_hz_;
  }

  /// Set (or lift, with 0) the host-level RAPL package power cap at
  /// runtime; rack-level cappers use this as their actuation knob.
  /// Re-asserting the current value is a pure no-op (no generation bump),
  /// so a capper that re-lifts an already-lifted cap every window cannot
  /// end a coast episode.
  void set_power_cap_w(double cap_w) noexcept {
    if (spec_.rapl_power_cap_w == cap_w) return;
    spec_.rapl_power_cap_w = cap_w;
    ++generation_;
  }

  // --- analytic idle coasting (hw/idle_coast.h) ---
  //
  // A host whose task table is exactly the baseline system daemons, whose
  // power cap is lifted and whose frequency is nominal may *coast*: park
  // its physics at an anchor snapshot and advance as a pure closed form of
  // elapsed time — zero RNG draws, frozen perf/cpuacct/VFS jitter,
  // constant noise-free idle power. defer_idle() accrues idle time
  // in O(1) and coast_sync() materialises it. Any split of the same
  // interval lands on identical bits — a sync per tick (the "equivalent
  // sequence of idle ticks", the reference tests/sparse_test.cpp keeps),
  // one defer per step, or a single defer of a whole parked stretch —
  // because every materialisation recomputes from the anchor and never
  // moves it. cloud::Server leans on the strongest form: a coasting
  // server defers each step it is visited, and a parked one defers the
  // whole stretch it owes in one defer_idle(k*dt) when a non-const member
  // next settles it; either way its state is materialised only then.
  //
  // Episodes end only through mutation: every path that can change
  // eligibility (spawn/kill, cap change, mutable_* accessors) bumps
  // generation_, which coast_active() checks against the anchor.
  // advance() never coasts: only a caller that defers idle time (every
  // cloud::Server's step(), in a facility or standalone) enters the regime.
  /// True when the host may coast *now*: only the baseline system tasks,
  /// no power cap, frequency at nominal. Every input changes only through
  /// generation-bumping paths, so eligibility cannot flip mid-episode
  /// without coast_active() noticing.
  [[nodiscard]] bool coast_eligible() const noexcept;
  /// Deferred idle advance: accrue pending coast time in O(1) without
  /// touching any observable state (begins an episode if none is live —
  /// entry pins last_tick_power_w() to the constant idle power, so const
  /// power reads match per-tick stepping from the first coasted step).
  /// Server::step calls this once per coasted step, a parked Server's
  /// settle once with the whole stretch it owes.
  void defer_idle(SimDuration duration);
  /// Materialise any pending deferred time. The episode stays live — a
  /// sync never re-anchors, so pure reads after a sync cannot diverge
  /// from a dense run where the same reads touch nothing.
  void coast_sync();
  /// Whether a coast episode is live (anchored and not invalidated by a
  /// later mutation).
  [[nodiscard]] bool coast_active() const noexcept {
    return coast_.active && generation_ == coast_.expected_generation;
  }

  /// Stable logical id stamped on this host's event-bus emissions
  /// (obs/events.h): the server index in a facility, 0 standalone. Part of
  /// the merged-stream order, so it must be simulated identity — never the
  /// execution lane.
  void set_event_source(std::uint32_t source) noexcept {
    event_source_ = source;
  }
  [[nodiscard]] std::uint32_t event_source() const noexcept {
    return event_source_;
  }

  /// Per-host deterministic RNG fork for auxiliary consumers.
  [[nodiscard]] Rng fork_rng(std::string_view salt) const {
    return rng_base_.fork(salt);
  }

 private:
  /// Per-dt factors that are pure functions of the tick length (thermal RC
  /// decay, loadavg exponential-decay factors), computed once per distinct
  /// dt and reused — identical libm inputs give identical outputs, so
  /// caching cannot perturb a single bit.
  struct TickFactors {
    SimDuration dt = 0;
    bool valid = false;
    double thermal_decay = 0.0;
    double load1_factor = 0.0;
    double load5_factor = 0.0;
    double load15_factor = 0.0;
  };

  /// Anchor of an idle-coast episode: the value at entry of everything
  /// materialize_coast_() advances, plus the constant rates in force while
  /// the host idles. materialize_coast_() writes those fields of live state
  /// as a pure function of elapsed time (see hw/idle_coast.h for why that
  /// makes any tick split of the same interval land on identical bits). The
  /// rest of the host cannot move during an episode: every path that could
  /// change it bumps generation_, which ends the episode. A counter that a
  /// coast advances must join this anchor.
  struct CoastEpisode {
    /// Per-core values a coast advances.
    struct Core {
      std::uint64_t idle_jiffies = 0;  ///< CpuTimes::idle
      std::uint64_t sched_goidle = 0;
      double temp_c = 0.0;
      hw::CpuIdleCounter deep_idle;  ///< deepest C-state
    };
    bool active = false;
    std::uint64_t expected_generation = 0;  ///< stale once generation_ moves
    SimTime t0 = 0;                ///< host now() at the anchor
    SimDuration materialized = 0;  ///< elapsed already applied to live state
    SimDuration pending = 0;       ///< deferred by defer_idle, not yet applied
    // Snapshots.
    std::uint64_t uptime_ns = 0;
    std::uint64_t idle_time_ns = 0;
    std::vector<Core> cores;
    LockstepCounters lockstep;
    std::uint64_t total_interrupts = 0;
    std::uint64_t total_ctxt_switches = 0;
    double load1 = 0.0;
    double load5 = 0.0;
    double load15 = 0.0;
    std::vector<hw::RaplDomainState> rapl;  ///< package-major {pkg,core,dram}
    // Constant rates derived at the anchor.
    double io_rate_per_s = 0.0;
    double ctxt_rate_per_s = 0.0;
    double load_target = 0.0;        ///< sum of min(1, duty) over tasks
    std::vector<double> pkg_watts;   ///< package-domain power per package
    std::vector<double> core_watts;  ///< core-domain power per package
    double dram_watts = 0.0;         ///< dram-domain power per package
  };

  /// What one core's tick activity adds to the host's per-core state. A
  /// tick derives it once per busy core and once for all idle ones.
  struct CoreTick {
    hw::TickEnergy energy;
    double power_w = 0.0;        ///< core-domain power over the tick
    std::uint64_t idle_us = 0;   ///< cpuidle residency
    std::uint64_t idle_ns = 0;   ///< /proc/uptime idle time
    CpuTimes jiffies;            ///< /proc/stat
    std::uint64_t sched_goidle = 0;
    std::uint64_t run_time_ns = 0;
    std::uint64_t wait_time_ns = 0;
    std::uint64_t timeslices = 0;
  };

  void begin_coast_();
  void materialize_coast_(SimDuration elapsed);
  void run_tick(SimDuration dt);
  [[nodiscard]] CoreTick core_tick_(const hw::TickActivity& activity,
                                    double dt_sec,
                                    double total_io_rate) const noexcept;
  /// The tick's one pass over the cores: energy, thermal step, cpuidle
  /// residency and per-cpu counters. Returns the host's instructions and
  /// busy seconds for the tick.
  hw::TickActivity step_cores_(double dt_sec, double total_io_rate,
                               double decay);
  /// Charge the package sums of the core pass to RAPL, with measurement
  /// noise, and set last_tick_power_w().
  void integrate_energy(double dt_sec);
  /// The host-wide half of the kernel counters (the per-cpu half is in
  /// step_cores_): uptime, loadavg, interrupts, entropy, VFS, ext4, NUMA.
  void update_kernel_counters(SimDuration dt, double total_io_rate,
                              double instructions, std::uint64_t ctx_before,
                              std::uint64_t migrations_before);
  /// Lockstep and interrupt counters over an interval, shared by the tick
  /// and the coast: `jiffies` timer ticks and schedule() calls,
  /// `whole_seconds` of irq and softirq time, IO at `io_rate_per_s` for
  /// `seconds`, and `migrations` reschedule IPIs per cpu.
  void advance_interrupts_(std::uint64_t jiffies, std::uint64_t whole_seconds,
                           double io_rate_per_s, double seconds,
                           std::uint64_t migrations);
  void update_memory_accounting();
  void apply_power_capping();
  [[nodiscard]] int package_of_core(int core) const noexcept;
  [[nodiscard]] const TickFactors& factors_for(SimDuration dt);

  std::string name_;
  hw::HardwareSpec spec_;
  Rng rng_base_;
  Rng rng_;
  SimTime now_ = 0;
  SimDuration tick_duration_ = 100 * kMillisecond;

  hw::EnergyModel energy_model_;
  std::vector<hw::RaplPackage> rapl_;
  hw::ThermalModel thermal_;
  hw::CpuIdleAccounting cpuidle_;

  TickFactors factors_;             ///< per-dt factor cache
  std::vector<double> pkg_core_j_;  ///< per-tick package sums of core energy
  std::vector<double> pkg_dram_j_;
  std::uint32_t event_source_ = 0;  ///< see set_event_source()

  NamespaceRegistry ns_registry_;
  NamespaceSet init_ns_;
  CgroupManager cgroups_;
  PerfEventSubsystem perf_;
  Scheduler sched_;
  std::vector<std::shared_ptr<Task>> tasks_;
  HostPid next_pid_ = 300;  ///< early pids belong to kernel threads

  /// Size of the task table right after construction (the baseline system
  /// daemons); coast eligibility requires the table to still match it.
  std::size_t baseline_task_count_ = 0;
  CoastEpisode coast_;

  KernelState kstate_;
  double last_tick_power_w_ = 0.0;
  std::uint64_t nonroot_usage_marker_ = 0;  ///< see nonroot_usage_marker()
  double effective_freq_hz_ = 0.0;
  std::uint64_t ticks_run_ = 0;
  /// Bumped by every mutation that can end a coast episode (tick, task
  /// table change, cap change, mutable_* access); see coast_active().
  std::uint64_t generation_ = 0;
};

}  // namespace cleaks::kernel
