// Equivalence contract of the per-host step physics. There is no live
// reference path to A/B against, so the contract is pinned two ways: (1) a
// recorded golden digest of a 200-step facility, equal at every lane
// count; (2) the scheduler's closed-form context-switch shortcut driven
// directly against the per-quantum hook loop.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cloud/datacenter.h"
#include "kernel/cgroup.h"
#include "kernel/perf_event.h"
#include "kernel/scheduler.h"
#include "kernel/task.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace cleaks {
namespace {

cloud::DatacenterConfig facility(int threads) {
  cloud::DatacenterConfig config;
  config.num_racks = 3;
  config.servers_per_rack = 4;
  config.rack_breaker.rated_w = 4000.0;
  config.rack_power_cap_w = 3200.0;
  config.seed = 7;
  config.num_threads = threads;
  return config;
}

struct FacilityTrace {
  std::vector<double> total_power;    ///< per-step facility power (bitwise)
  std::vector<std::uint64_t> rapl_uj; ///< final energy_uj, every domain
  std::vector<double> rapl_j;         ///< final unwrapped totals, every domain
  std::uint64_t sim_digest = 0;       ///< obs registry digest (Scope::kSim)

  bool operator==(const FacilityTrace& other) const {
    return total_power == other.total_power && rapl_uj == other.rapl_uj &&
           rapl_j == other.rapl_j && sim_digest == other.sim_digest;
  }
};

FacilityTrace run_facility(int threads, int steps = 200) {
  obs::Registry::global().reset();
  cloud::Datacenter dc(facility(threads));
  FacilityTrace trace;
  for (int tick = 0; tick < steps; ++tick) {
    dc.step(kSecond);
    trace.total_power.push_back(dc.total_power_w());
  }
  for (int s = 0; s < dc.num_servers(); ++s) {
    for (const auto& pkg : dc.server(s).host().rapl()) {
      for (const hw::RaplDomain* domain :
           {&pkg.package(), &pkg.core(), &pkg.dram()}) {
        trace.rapl_uj.push_back(domain->energy_uj());
        trace.rapl_j.push_back(domain->lifetime_energy_j());
      }
    }
  }
  trace.sim_digest =
      obs::Registry::global().snapshot().digest(obs::Scope::kSim);
  return trace;
}

// Recorded at the PR that deleted the scalar reference path; re-recorded at
// the sparse-stepping PR, which added the engine_active_server_steps_total /
// engine_idle_coasted_sim_seconds_total counters to the kSim registry (the
// power and RAPL traces themselves were bit-for-bit unchanged, and the new
// digest is identical under CLEAKS_SPARSE=0 and 1 at every lane count —
// tests/sparse_test.cpp pins that equality directly). Any arithmetic drift
// in the unconditional fast path shows up here.
constexpr std::uint64_t kFacilityGoldenDigest = 0x82f12a74f3b07e98ull;

TEST(StepPhysics, FacilityBitwiseIdenticalAcrossLanesAndGolden) {
  const FacilityTrace reference = run_facility(1);
  for (int lanes : {2, 4, 8}) {
    EXPECT_EQ(run_facility(lanes), reference) << lanes << " lanes";
  }
  EXPECT_EQ(reference.sim_digest, kFacilityGoldenDigest)
      << "actual digest 0x" << std::hex << reference.sim_digest;
}

// ---------- scheduler closed-form fast path ----------

struct SchedObservation {
  std::vector<std::uint64_t> ctx_switches;  ///< per task
  std::uint64_t total_switches = 0;
  /// Summed pmu_state over the cgroup's perf event instances: the direct
  /// footprint of the context-switch hook (cgroup counters are charged by
  /// the Host after the tick, not in Scheduler::tick itself).
  std::uint64_t pmu_state = 0;
  double active_seconds = 0.0;

  bool operator==(const SchedObservation& other) const {
    return ctx_switches == other.ctx_switches &&
           total_switches == other.total_switches &&
           pmu_state == other.pmu_state &&
           active_seconds == other.active_seconds;
  }
};

// Drive Scheduler::tick directly: 6 busy tasks on 4 cores, 50 ticks. With
// an unmonitored cgroup the closed-form arithmetic must match the
// per-quantum hook loop bitwise (every hook is a no-op there); with a
// monitored cgroup the scheduler internally falls back to the loop on the
// involved cores, so the flag must not matter either way.
SchedObservation run_sched(bool closed_form, bool monitored) {
  kernel::Scheduler sched(4);
  kernel::PerfEventSubsystem perf;
  auto root = std::make_shared<kernel::Cgroup>("/");
  auto cgroup = std::make_shared<kernel::Cgroup>("/docker/sched");
  if (monitored) perf.create_cgroup_events(*cgroup, 4);

  std::vector<std::shared_ptr<kernel::Task>> tasks;
  for (int i = 0; i < 6; ++i) {
    auto task = std::make_shared<kernel::Task>();
    task->host_pid = i + 2;
    task->comm = "sched-busy";
    task->container_id = "sched";
    task->cgroup = cgroup;
    task->cpu = i % 4;
    task->behavior.duty_cycle = 1.0;
    task->behavior.ipc = 1.5;
    tasks.push_back(std::move(task));
  }

  Rng rng(1199);
  SchedObservation obs;
  for (int tick = 0; tick < 50; ++tick) {
    sched.tick(tasks, 2.4e9, 100 * kMillisecond, perf, *root, rng,
               closed_form);
    for (const auto& activity : sched.core_activity()) {
      obs.active_seconds += activity.active_seconds;
    }
  }
  for (const auto& task : tasks) {
    obs.ctx_switches.push_back(task->stats.ctx_switches);
  }
  obs.total_switches = sched.total_context_switches();
  for (const auto& instance : cgroup->perf.events) {
    obs.pmu_state += instance.pmu_state;
  }
  return obs;
}

TEST(ClosedFormScheduler, ClosedFormMatchesHookLoopWhenUnmonitored) {
  const auto loop = run_sched(/*closed_form=*/false, /*monitored=*/false);
  const auto closed = run_sched(true, false);
  EXPECT_EQ(closed, loop);
  // Sanity: the busy queue actually context-switched.
  EXPECT_GT(loop.total_switches, 0u);
}

TEST(ClosedFormScheduler, MonitoredCgroupFallsBackToHookLoop) {
  const auto loop = run_sched(/*closed_form=*/false, /*monitored=*/true);
  const auto closed = run_sched(true, true);
  EXPECT_EQ(closed, loop);
  EXPECT_GT(loop.pmu_state, 0u);  // the switch hook really ran
}

}  // namespace
}  // namespace cleaks
