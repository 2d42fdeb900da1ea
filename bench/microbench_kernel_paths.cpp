// Microbenchmarks (google-benchmark) for the kernel paths the power-based
// namespace touches: context-switch hooks (intra/inter cgroup, monitored or
// not), perf-event fork inheritance, pseudo-file rendering, and the two
// RAPL read paths (stock leak vs. per-container modeled view). These are
// the per-operation costs behind Table III's aggregate overheads.
//
// BM_HostAdvance times the whole-host tick loop on one host, reporting
// honest cycle counts (util/cycle_timer.h: rdtsc, or steady_clock ns on
// other platforms) as the "cycles" counter alongside google-benchmark's
// wall clock.
#include <benchmark/benchmark.h>

#include "cloud/datacenter.h"
#include "cloud/profiles.h"
#include "cloud/provider.h"
#include "cloud/server.h"
#include "defense/power_namespace.h"
#include "defense/trainer.h"
#include "faults/injector.h"
#include "faults/plan.h"
#include "util/cycle_timer.h"

using namespace cleaks;

namespace {

struct Env {
  Env()
      : server("micro", cloud::local_testbed(), 11),
        model(defense::train_default_model(11).value()),
        power_ns(server.runtime(), model) {
    server.host().set_tick_duration(100 * kMillisecond);
    container::ContainerConfig config;
    instance = server.runtime().create(config);
    other = server.runtime().create(config);
    server.step(2 * kSecond);
  }

  cloud::Server server;
  defense::PowerModel model;
  defense::PowerNamespace power_ns;
  std::shared_ptr<container::Container> instance;
  std::shared_ptr<container::Container> other;
};

Env& env() {
  static Env instance;
  return instance;
}

void BM_ContextSwitch_Unmonitored(benchmark::State& state) {
  auto& e = env();
  e.power_ns.disable();
  auto* a = e.instance->cgroup().get();
  auto* b = e.other->cgroup().get();
  for (auto _ : state) {
    e.server.host().perf().on_context_switch(a, b, 0);
  }
}
BENCHMARK(BM_ContextSwitch_Unmonitored);

void BM_ContextSwitch_IntraCgroup_Monitored(benchmark::State& state) {
  auto& e = env();
  e.power_ns.enable();
  auto* a = e.instance->cgroup().get();
  for (auto _ : state) {
    e.server.host().perf().on_context_switch(a, a, 0);
  }
}
BENCHMARK(BM_ContextSwitch_IntraCgroup_Monitored);

void BM_ContextSwitch_InterCgroup_Monitored(benchmark::State& state) {
  auto& e = env();
  e.power_ns.enable();
  auto* a = e.instance->cgroup().get();
  auto* root = e.server.host().cgroups().root().get();
  for (auto _ : state) {
    e.server.host().perf().on_context_switch(a, root, 0);
  }
}
BENCHMARK(BM_ContextSwitch_InterCgroup_Monitored);

void BM_ForkHook_Monitored(benchmark::State& state) {
  auto& e = env();
  e.power_ns.enable();
  auto* a = e.instance->cgroup().get();
  for (auto _ : state) {
    e.server.host().perf().on_task_fork(a, 0);
  }
}
BENCHMARK(BM_ForkHook_Monitored);

void BM_SpawnKillTask(benchmark::State& state) {
  auto& e = env();
  e.power_ns.disable();
  kernel::TaskBehavior idle_task;
  for (auto _ : state) {
    auto task = e.instance->run("bm-child", idle_task);
    e.instance->kill(task->host_pid);
  }
}
BENCHMARK(BM_SpawnKillTask);

void BM_Read_ProcStat(benchmark::State& state) {
  auto& e = env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.instance->read_file("/proc/stat"));
  }
}
BENCHMARK(BM_Read_ProcStat);

void BM_Read_SchedDebug(benchmark::State& state) {
  auto& e = env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.instance->read_file("/proc/sched_debug"));
  }
}
BENCHMARK(BM_Read_SchedDebug);

// Cached vs uncached container-context reads (the PR 5 viewer cache). On a
// quiescent host, repeat reads of a cacheable path are served from the
// per-viewer render cache; the uncached fixture pins the fault-bypass path
// with a rate-0 rule — it never actually fires, but any covered path skips
// the viewer cache entirely and renders from scratch each time.
const faults::FaultInjector& meminfo_bypass_injector() {
  static const faults::FaultInjector injector = [] {
    faults::FaultPlan plan;
    faults::FaultRule rule;
    rule.path_glob = "/proc/*info";  // meminfo + cpuinfo
    rule.rate = 0.0;
    plan.rules.push_back(rule);
    return faults::FaultInjector(plan);
  }();
  return injector;
}

void BM_Read_ProcMeminfo_Cached(benchmark::State& state) {
  auto& e = env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.instance->read_file("/proc/meminfo"));
  }
}
BENCHMARK(BM_Read_ProcMeminfo_Cached);

void BM_Read_ProcMeminfo_Uncached(benchmark::State& state) {
  auto& e = env();
  e.server.fs().set_fault_injector(&meminfo_bypass_injector());
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.instance->read_file("/proc/meminfo"));
  }
  e.server.fs().set_fault_injector(nullptr);
}
BENCHMARK(BM_Read_ProcMeminfo_Uncached);

void BM_Read_ProcCpuinfo_Cached(benchmark::State& state) {
  auto& e = env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.instance->read_file("/proc/cpuinfo"));
  }
}
BENCHMARK(BM_Read_ProcCpuinfo_Cached);

void BM_Read_ProcCpuinfo_Uncached(benchmark::State& state) {
  auto& e = env();
  e.server.fs().set_fault_injector(&meminfo_bypass_injector());
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.instance->read_file("/proc/cpuinfo"));
  }
  e.server.fs().set_fault_injector(nullptr);
}
BENCHMARK(BM_Read_ProcCpuinfo_Uncached);

void BM_Read_RaplEnergy_Stock(benchmark::State& state) {
  auto& e = env();
  e.power_ns.disable();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        e.instance->read_file("/sys/class/powercap/intel-rapl:0/energy_uj"));
  }
}
BENCHMARK(BM_Read_RaplEnergy_Stock);

void BM_Read_RaplEnergy_PowerNamespace(benchmark::State& state) {
  auto& e = env();
  e.power_ns.enable();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        e.instance->read_file("/sys/class/powercap/intel-rapl:0/energy_uj"));
  }
}
BENCHMARK(BM_Read_RaplEnergy_PowerNamespace);

void BM_SchedulerTick_8Tasks(benchmark::State& state) {
  auto& e = env();
  e.power_ns.disable();
  std::vector<kernel::HostPid> pids;
  kernel::TaskBehavior busy;
  busy.duty_cycle = 1.0;
  for (int i = 0; i < 8; ++i) {
    pids.push_back(e.instance->run("bm-busy", busy)->host_pid);
  }
  for (auto _ : state) {
    e.server.host().advance(100 * kMillisecond);
  }
  for (auto pid : pids) e.instance->kill(pid);
}
BENCHMARK(BM_SchedulerTick_8Tasks);

// Whole-host tick loop. A fresh server (not the shared Env) so the host
// history is fixed; the "cycles" counter is the honest per-advance cost
// from the cycle timer, independent of google-benchmark's wall-clock
// plumbing.
void BM_HostAdvance(benchmark::State& state) {
  cloud::Server server("bm-host", cloud::local_testbed(), 23);
  server.host().set_tick_duration(100 * kMillisecond);
  server.step(kSecond);  // settle warmup transients out of the measurement
  CycleTimer cycles;
  for (auto _ : state) {
    cycles.start();
    server.host().advance(kSecond);
    cycles.stop();
  }
  state.counters["cycles"] = benchmark::Counter(
      static_cast<double>(cycles.total), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_HostAdvance);

// Provider control-plane hot paths (PR 10): steady-state launch/terminate
// churn against a part-full datacenter, and the batch forms the churn
// engine uses. Honest cycle counts via util/cycle_timer.h, like
// BM_HostAdvance — the "cycles" counter is per iteration (one
// launch + one terminate for the pair, 64 of each for the batch).
struct FleetEnv {
  FleetEnv() : dc(make_config()), provider(dc, 4242) {
    container::ContainerConfig cc;
    cc.num_cpus = 0;
    // Pre-fill to half occupancy so the placement index works against a
    // realistic mixed-occupancy fleet, not an empty one.
    provider.launch_batch("resident", 4 * dc.num_servers(), cc);
  }
  static cloud::DatacenterConfig make_config() {
    cloud::DatacenterConfig config;
    config.num_racks = 1;
    config.servers_per_rack = 64;
    config.benign_load = false;
    config.seed = 31;
    return config;
  }
  cloud::Datacenter dc;
  cloud::CloudProvider provider;  // default policy/rates, 8 per server
};

FleetEnv& fleet_env() {
  static FleetEnv instance;
  return instance;
}

void BM_ProviderLaunchTerminate_Pair(benchmark::State& state) {
  auto& e = fleet_env();
  container::ContainerConfig cc;
  cc.num_cpus = 0;
  std::vector<std::uint64_t> uid;
  CycleTimer cycles;
  for (auto _ : state) {
    uid.clear();
    cycles.start();
    e.provider.launch_batch("churn", 1, cc, &uid);
    e.provider.terminate_batch(uid);
    cycles.stop();
  }
  state.counters["cycles"] = benchmark::Counter(
      static_cast<double>(cycles.total), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ProviderLaunchTerminate_Pair);

void BM_ProviderBatch64(benchmark::State& state) {
  auto& e = fleet_env();
  container::ContainerConfig cc;
  cc.num_cpus = 0;
  CycleTimer cycles;
  for (auto _ : state) {
    cycles.start();
    e.provider.launch_batch("storm", 64, cc);
    e.provider.terminate_oldest("storm", 64);
    cycles.stop();
  }
  state.counters["cycles"] = benchmark::Counter(
      static_cast<double>(cycles.total), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ProviderBatch64);

}  // namespace

BENCHMARK_MAIN();
