// Scaling benchmark for the parallel simulation engine: wall-clock time of
// (a) Datacenter::step over a 16-server facility and (b) a full
// CrossValidator::scan, at 1/2/4/8 execution lanes. Every run also digests
// its results so the determinism contract — bitwise-identical output for
// every thread count — is checked, not assumed. Emits BENCH_scaling.json
// through the shared cleaks-bench-v1 exporter.
//
// A second, cycle-honest section profiles the step hot path on a single
// lane and emits BENCH_hotpath.json with per-kernel cycle costs. The
// process fails if the hot path's digest diverges from the scaling
// section's — same facility, same seed, so any difference is a
// determinism bug, not noise.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cloud/datacenter.h"
#include "cloud/profiles.h"
#include "cloud/server.h"
#include "hw/cpuidle.h"
#include "hw/energy_model.h"
#include "hw/rapl.h"
#include "hw/thermal.h"
#include "leakage/detector.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "util/cycle_timer.h"
#include "util/fnv.h"
#include "util/thread_pool.h"

using namespace cleaks;

namespace {

struct Run {
  int threads = 0;
  double seconds = 0.0;
  std::uint64_t digest = 0;
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Run bench_datacenter_step(int threads) {
  cloud::DatacenterConfig config;
  config.num_racks = 2;
  config.servers_per_rack = 8;
  config.rack_breaker.rated_w = 8000.0;
  config.rack_power_cap_w = 6500.0;
  config.seed = 11;
  config.num_threads = threads;
  cloud::Datacenter dc(config);

  Fnv64 digest;
  const double start = now_seconds();
  for (int tick = 0; tick < 120; ++tick) {
    dc.step(kSecond);
    digest.add_double(dc.total_power_w());
  }
  const double elapsed = now_seconds() - start;
  for (int s = 0; s < dc.num_servers(); ++s) {
    digest.add_double(dc.server(s).power_w());
  }
  return {threads, elapsed, digest.hash};
}

Run bench_scan(int threads) {
  cloud::Server server("bench-host", cloud::local_testbed(), 77, 40 * kDay);
  leakage::ScanOptions options;
  options.num_threads = threads;
  leakage::CrossValidator validator(server, options);

  const double start = now_seconds();
  const auto findings = validator.scan();
  const double elapsed = now_seconds() - start;

  Fnv64 digest;
  for (const auto& finding : findings) {
    digest.add_string(finding.path);
    digest.add_string(leakage::to_string(finding.cls));
  }
  return {threads, elapsed, digest.hash};
}

void report_runs(obs::JsonWriter& json, const char* name,
                 const std::vector<Run>& runs, bool* identical) {
  std::printf("%s:\n", name);
  json.begin_array(name);
  for (const auto& run : runs) {
    const double speedup = runs[0].seconds / run.seconds;
    std::printf("  %d thread(s): %8.1f ms  (%.2fx)  digest %016llx\n",
                run.threads, run.seconds * 1e3, speedup,
                (unsigned long long)run.digest);
    char digest_hex[17];
    std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                  (unsigned long long)run.digest);
    json.begin_object()
        .field("threads", run.threads)
        .field("seconds", run.seconds)
        .field("speedup", speedup)
        .field("digest", digest_hex)
        .end_object();
    if (run.digest != runs[0].digest) *identical = false;
  }
  json.end_array();
}

// ---------- hotpath: single-lane step cost + kernel cycle costs ----------

struct HotpathRun {
  double seconds = 0.0;
  double steps_per_sec = 0.0;
  std::uint64_t cycles_per_step = 0;
  std::uint64_t digest = 0;
};

HotpathRun bench_hotpath() {
  cloud::DatacenterConfig config;
  config.num_racks = 2;
  config.servers_per_rack = 8;
  config.rack_breaker.rated_w = 8000.0;
  config.rack_power_cap_w = 6500.0;
  config.seed = 11;
  config.num_threads = 1;  // single lane: pure per-step cost, no overlap
  cloud::Datacenter dc(config);

  constexpr int kSteps = 120;
  Fnv64 digest;
  CycleTimer cycles;
  const double start = now_seconds();
  cycles.start();
  for (int tick = 0; tick < kSteps; ++tick) {
    dc.step(kSecond);
    digest.add_double(dc.total_power_w());
  }
  cycles.stop();
  const double elapsed = now_seconds() - start;
  for (int s = 0; s < dc.num_servers(); ++s) {
    digest.add_double(dc.server(s).power_w());
  }
  HotpathRun run;
  run.seconds = elapsed;
  run.steps_per_sec = elapsed > 0.0 ? kSteps / elapsed : 0.0;
  run.cycles_per_step = cycles.total / kSteps;
  run.digest = digest.hash;
  return run;
}

/// Cycles per call of `op`, amortized over `iters` runs.
template <typename Op>
std::uint64_t cycles_per_op(int iters, Op&& op) {
  CycleTimer timer;
  timer.start();
  for (int i = 0; i < iters; ++i) op();
  timer.stop();
  return timer.total / static_cast<std::uint64_t>(iters);
}

void report_hotpath_run(obs::JsonWriter& json, const char* key,
                        const HotpathRun& run) {
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                (unsigned long long)run.digest);
  json.begin_object(key)
      .field("seconds", run.seconds)
      .field("steps_per_sec", run.steps_per_sec)
      .field("cycles_per_step", run.cycles_per_step)
      .field("digest", digest_hex)
      .end_object();
}

/// Single-lane step-cost profile plus per-kernel cycle costs of the
/// physics kernels the step is built from. `scaling_digest` is the
/// single-thread digest from the scaling section above — same facility,
/// same step count, so the hot path must reproduce it bitwise. Lane
/// reporting goes through ThreadPool::default_lanes() so the envelope
/// records the same CLEAKS_THREADS resolution every pool in the binary
/// uses (clamped env override, else the affinity-mask CPU count).
bool run_hotpath_section(std::uint64_t scaling_digest) {
  std::printf("\n== step hot path (single lane) ==\n");
  const double cps = calibrate_cycles_per_second();
  std::printf("cycle source: %s (~%.2f GHz equivalent)\n",
              cycle_counter_source(), cps / 1e9);

  const HotpathRun step = bench_hotpath();
  const bool digests_match = step.digest == scaling_digest;
  std::printf("  step: %8.1f ms  %7.1f steps/s  %10llu cyc/step  %016llx\n",
              step.seconds * 1e3, step.steps_per_sec,
              (unsigned long long)step.cycles_per_step,
              (unsigned long long)step.digest);
  std::printf("  digest vs scaling section: %s\n",
              digests_match ? "identical" : "DIVERGED");

  // Per-kernel cycle costs of the physics leaves the step is composed of.
  double sink = 0.0;  // observed below so no kernel loop is dead code
  hw::RaplDomainState rapl_state;
  const auto rapl_cycles = cycles_per_op(200000, [&] {
    hw::rapl_charge(rapl_state, 0.1234, hw::RaplDomain::kDefaultRangeUj);
  });
  sink += rapl_state.total_j;
  hw::ThermalModel thermal(32);
  std::vector<double> power(32, 3.5);
  const double decay = hw::thermal_decay(1.0, thermal.params());
  const auto thermal_cycles = cycles_per_op(50000, [&] {
    thermal.advance_with_decay(power.data(), power.size(), decay);
  });
  hw::CpuIdleAccounting cpuidle(32, cloud::cc1().hardware.cpuidle_states);
  int idle_core = 0;
  const auto cpuidle_cycles = cycles_per_op(200000, [&] {
    cpuidle.record_idle(idle_core, 350);
    idle_core = (idle_core + 1) % 32;
  });
  sink += static_cast<double>(cpuidle.time_us(0, 0));
  sink += thermal.temp_c(0);
  hw::EnergyModel energy(cloud::cc1().hardware.energy);
  hw::TickActivity activity;
  activity.active_seconds = 0.4;
  activity.idle_seconds = 0.6;
  activity.instructions = 5e8;
  activity.cycles = 9e8;
  activity.cache_misses = 2e6;
  activity.branch_misses = 1e6;
  const auto energy_cycles = cycles_per_op(200000, [&] {
    sink += energy.core_activity_energy(activity).package_j;
  });
  std::printf(
      "  kernels: rapl_charge %llu cyc, thermal_step(32c) %llu cyc,\n"
      "           cpuidle_record %llu cyc, core_energy %llu cyc  (sink %.1f)\n",
      (unsigned long long)rapl_cycles, (unsigned long long)thermal_cycles,
      (unsigned long long)cpuidle_cycles, (unsigned long long)energy_cycles,
      sink);

  obs::BenchReport report("hotpath");
  auto& json = report.json();
  json.field("cycle_source", cycle_counter_source());
  json.field("cycles_per_second", cps);
  json.field("default_lanes", ThreadPool::default_lanes());
  report_hotpath_run(json, "step", step);
  json.field("digests_match", digests_match);
  json.begin_array("kernels");
  auto kernel = [&](const char* name, std::uint64_t cyc) {
    json.begin_object().field("name", name).field("cycles_per_op", cyc)
        .end_object();
  };
  kernel("rapl_charge", rapl_cycles);
  kernel("thermal_step_32c", thermal_cycles);
  kernel("cpuidle_record", cpuidle_cycles);
  kernel("core_activity_energy", energy_cycles);
  json.end_array();
  const std::string path = report.write();
  if (path.empty()) {
    std::fprintf(stderr, "cannot write hotpath bench report\n");
    return false;
  }
  std::printf("wrote %s\n", path.c_str());

  if (!digests_match) {
    std::fprintf(stderr,
                 "hotpath: step digest diverged from the scaling section\n");
    return false;
  }
  return true;
}

}  // namespace

int main() {
  const std::vector<int> lane_counts = {1, 2, 4, 8};
  std::printf("== parallel engine scaling (hardware_concurrency = %u) ==\n\n",
              std::thread::hardware_concurrency());

  std::vector<Run> step_runs;
  std::vector<Run> scan_runs;
  for (int threads : lane_counts) {
    step_runs.push_back(bench_datacenter_step(threads));
  }
  for (int threads : lane_counts) {
    scan_runs.push_back(bench_scan(threads));
  }

  obs::BenchReport report("scaling");
  report.json().field("hardware_concurrency",
                      std::thread::hardware_concurrency());
  bool identical = true;
  report_runs(report.json(), "datacenter_step", step_runs, &identical);
  report_runs(report.json(), "scan", scan_runs, &identical);
  report.json().field("identical_across_threads", identical);
  const std::string path = report.write();
  if (path.empty()) {
    std::fprintf(stderr, "cannot write bench report\n");
    return 1;
  }

  std::printf("\nidentical output across thread counts: %s\n",
              identical ? "yes" : "NO — DETERMINISM VIOLATION");
  std::printf("wrote %s\n", path.c_str());

  const bool hotpath_ok = run_hotpath_section(step_runs[0].digest);
  return identical && hotpath_ok ? 0 : 1;
}
