// Sparse-stepping scaling benchmark: visit-all (CLEAKS_SPARSE=0 — every
// server stays on the active list and coasts per step) vs parked
// (CLEAKS_SPARSE=1 — coasting servers leave the list and are carried by
// the rack/facility aggregates until a Server member settles them) over a
// fleet-size sweep at a *fixed* active-server count. The active servers
// run the diurnal benign load (RNG every tick, so they never coast); the
// rest are pure idle and the parked schedule drops them from the per-step
// walk. A coasted step on the active list only defers its time in O(1),
// as a parked server's owed time is deferred, so neither mode
// materialises idle state per step and the reported `speedup` measures
// only the cost of visiting idle servers.
//
// Three things are checked, not just measured:
//   * correctness — for every sweep point the visit-all and parked runs
//     must produce an identical trace digest (per-step facility power,
//     final per-server power/uptime/RAPL), and the engine_* kSim
//     counters must accrue identically in both modes;
//   * O(active) aggregation — steady-state parked per-step cost must
//     stay flat (<= 1.3x) from the smallest to the largest fleet, since
//     the work is O(active + racks), not O(N). The parked passes run as
//     interleaved rounds over the sweep, alternating which end goes
//     first, and the gate is the median of the per-round ratios: a machine
//     whose step cost drifts between two states over minutes moves both
//     points of a round together, where points timed minutes apart can
//     straddle a change of state;
//   * headline floor — the 10k-server / 1%-active point must run a
//     60-step loop at least 2x faster than the recorded PR 8 sparse
//     baseline (0.24 s), which still walked every server per step for
//     aggregation.
// The very first step is the parking edge: every idle server takes one
// real step to prove it can coast before it leaves the active list, so
// step 0 is inherently O(N). It is timed and reported separately
// (construction-adjacent warmup), and the flatness/headline gates apply
// to the steady state that follows.
// CLEAKS_BENCH_QUICK=1 shrinks the sweep for sanitizer CI and gates the
// two timing assertions off (digest/counter equality always applies).
//
// Emits BENCH_sparse.json (cleaks-bench-v1).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cloud/datacenter.h"
#include "cloud/profiles.h"
#include "cloud/server.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "util/env.h"
#include "util/fnv.h"
#include "util/stats.h"

using namespace cleaks;

namespace {

/// 60-step wall seconds of the PR 8 sparse stepper at 10k servers / 1%
/// active, recorded before the aggregation loop went O(active + racks).
constexpr double kPr8BaselineSeconds = 0.24;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SweepPoint {
  int servers = 0;
  int active = 0;
  int steps = 0;
};

struct ModeRun {
  double first_step_seconds = 0.0;  ///< step 0: the O(N) parking edge
  double per_step_seconds = 0.0;    ///< steady regime: median of steps 1..n-1
  std::uint64_t digest = 0;
  std::uint64_t active_steps = 0;   ///< engine_active_server_steps_total delta
  std::uint64_t coasted_s = 0;      ///< engine_idle_coasted_sim_seconds_total delta
  int slept = 0;                    ///< peak servers parked
};

// Same registrations as the Datacenter's own metrics struct: the registry
// returns the existing counters, letting the bench read mode deltas.
obs::Counter& active_counter() {
  return obs::Registry::global().counter(
      "engine_active_server_steps_total",
      "server-steps that ran full per-tick physics (did not coast)");
}
obs::Counter& coasted_counter() {
  return obs::Registry::global().counter(
      "engine_idle_coasted_sim_seconds_total",
      "sim-seconds advanced through the analytic idle coast");
}

/// One timed pass on a fresh Datacenter. The steady per-step cost is the
/// *median* step time within the pass (robust to one-off scheduler
/// spikes); every pass of a point is bitwise-identical, so digest and
/// counter deltas are captured on each.
ModeRun run_pass(const SweepPoint& point, bool parked) {
  cloud::DatacenterConfig config;
  config.servers_per_rack = 100;
  config.num_racks = (point.servers + 99) / 100;
  config.rack_breaker.rated_w = 1e9;  // scaling run, not a breaker study
  config.benign_load = true;
  config.benign_load_servers = point.active;
  config.seed = 23;
  config.num_threads = 1;  // per-step cost, not lane overlap
  config.sparse = parked ? 1 : 0;
  cloud::Datacenter dc(config);

  const std::uint64_t active_before = active_counter().value();
  const std::uint64_t coasted_before = coasted_counter().value();
  Fnv64 digest;
  ModeRun run;
  std::vector<double> step_seconds;
  step_seconds.reserve(static_cast<std::size_t>(point.steps));
  for (int s = 0; s < point.steps; ++s) {
    const double t0 = now_seconds();
    dc.step(kSecond);
    const double elapsed = now_seconds() - t0;
    if (s == 0) {
      run.first_step_seconds = elapsed;
    } else {
      step_seconds.push_back(elapsed);
    }
    digest.add_double(dc.total_power_w());
    run.slept = std::max(run.slept, dc.sleeping_servers());
  }
  std::nth_element(step_seconds.begin(),
                   step_seconds.begin() + step_seconds.size() / 2,
                   step_seconds.end());
  run.per_step_seconds = step_seconds[step_seconds.size() / 2];
  for (int i = 0; i < dc.num_servers(); ++i) {
    cloud::Server& server = dc.server(i);  // host() settles it
    digest.add_double(server.power_w());
    digest.add_u64(server.host().state().uptime_ns);
    if (!server.host().rapl().empty()) {
      digest.add_u64(server.host().rapl()[0].package().energy_uj());
    }
  }
  run.digest = digest.hash;
  run.active_steps = active_counter().value() - active_before;
  run.coasted_s = coasted_counter().value() - coasted_before;
  return run;
}

/// Fold one more pass into a point's result: the timings keep their
/// minimum across passes (stripping sustained machine noise).
void fold_pass(ModeRun& run, const ModeRun& pass, bool first) {
  if (first) {
    run = pass;
    return;
  }
  run.first_step_seconds =
      std::min(run.first_step_seconds, pass.first_step_seconds);
  run.per_step_seconds = std::min(run.per_step_seconds, pass.per_step_seconds);
}

}  // namespace

int main() {
  const bool quick = env_long_or("CLEAKS_BENCH_QUICK", 0) != 0;
  // Fixed active count across the fleet sweep: only N grows, so a flat
  // parked per-step cost witnesses O(active + racks) aggregation. Last
  // point is the headline config (10k servers, 1% active).
  const std::vector<SweepPoint> sweep =
      quick ? std::vector<SweepPoint>{{200, 8, 30}, {300, 8, 30}}
            : std::vector<SweepPoint>{
                  {1000, 100, 60}, {3000, 100, 60}, {10000, 100, 60}};
  // The gated numbers come from the parked runs, so those take 5 passes
  // per point; visit-all is reference-only and runs once.
  const int parked_repeats = quick ? 1 : 5;
  const double flat_limit = 1.3;
  const double headline_target = 2.0;

  std::printf("== visit-all vs parked stepping (%s sweep) ==\n\n",
              quick ? "quick" : "full");
  obs::BenchReport report("sparse");
  auto& json = report.json();
  json.field("quick", quick);
  json.begin_array("runs");

  // Parked passes, as interleaved rounds over the sweep: even rounds run
  // the points smallest first, odd rounds largest first. The flatness gate
  // takes the median of the per-round largest/smallest ratios.
  const std::size_t last = sweep.size() - 1;
  std::vector<ModeRun> parked_runs(sweep.size());
  std::vector<double> round_ratios;
  for (int round = 0; round < parked_repeats; ++round) {
    std::vector<ModeRun> pass(sweep.size());
    for (std::size_t k = 0; k < sweep.size(); ++k) {
      const std::size_t i = round % 2 == 0 ? k : last - k;
      pass[i] = run_pass(sweep[i], /*parked=*/true);
      fold_pass(parked_runs[i], pass[i], round == 0);
    }
    round_ratios.push_back(pass[0].per_step_seconds > 0.0
                               ? pass[last].per_step_seconds /
                                     pass[0].per_step_seconds
                               : 0.0);
  }

  bool digests_match = true;
  bool counters_match = true;
  double headline_seconds = 0.0;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& point = sweep[i];
    const ModeRun visit_all = run_pass(point, /*parked=*/false);
    const ModeRun& parked = parked_runs[i];
    // Per-step regime cost: steady steps only (steps 1..n-1); step 0 is
    // the O(N) parking edge and is reported on its own.
    const double per_step_us = parked.per_step_seconds * 1e6;
    const double visit_per_step_us = visit_all.per_step_seconds * 1e6;
    const double speedup =
        per_step_us > 0.0 ? visit_per_step_us / per_step_us : 0.0;
    // Headline comparison: the PR 8 baseline covered a full 60-step loop,
    // so project the steady per-step cost over the same step count.
    headline_seconds = per_step_us * 1e-6 * point.steps;
    const bool match = visit_all.digest == parked.digest;
    digests_match = digests_match && match;
    counters_match = counters_match &&
                     visit_all.active_steps == parked.active_steps &&
                     visit_all.coasted_s == parked.coasted_s;
    std::printf(
        "  %6d servers, %4d active, %3d steps: visit-all %8.2f us/step, "
        "parked %7.2f us/step (+%.1f ms parking edge, %.1fx)  digests %s  "
        "slept %d\n",
        point.servers, point.active, point.steps, visit_per_step_us,
        per_step_us, parked.first_step_seconds * 1e3, speedup,
        match ? "identical" : "DIVERGED", parked.slept);
    char visit_hex[17];
    char parked_hex[17];
    std::snprintf(visit_hex, sizeof visit_hex, "%016llx",
                  (unsigned long long)visit_all.digest);
    std::snprintf(parked_hex, sizeof parked_hex, "%016llx",
                  (unsigned long long)parked.digest);
    json.begin_object()
        .field("servers", point.servers)
        .field("active_servers", point.active)
        .field("steps", point.steps)
        .field("visit_all_per_step_us", visit_per_step_us)
        .field("parked_per_step_us", per_step_us)
        .field("parked_parking_edge_seconds", parked.first_step_seconds)
        .field("speedup", speedup)
        .field("visit_all_digest", visit_hex)
        .field("parked_digest", parked_hex)
        .field("digests_match", match)
        .field("active_server_steps", visit_all.active_steps)
        .field("idle_coasted_sim_seconds", visit_all.coasted_s)
        .field("counters_match",
               visit_all.active_steps == parked.active_steps &&
                   visit_all.coasted_s == parked.coasted_s)
        .field("parked_peak_sleeping", parked.slept)
        .end_object();
  }
  json.end_array();
  // The gate: median of the interleaved rounds' ratios. The ratio of the
  // two points' best passes is printed beside it for comparison.
  const double flat_ratio = percentile(round_ratios, 50.0);
  const double min_pass_ratio =
      parked_runs[0].per_step_seconds > 0.0
          ? parked_runs[last].per_step_seconds / parked_runs[0].per_step_seconds
          : 0.0;
  const double headline_speedup =
      headline_seconds > 0.0 ? kPr8BaselineSeconds / headline_seconds : 0.0;
  // Timing gates only bind on the full sweep: the quick sweep runs under
  // sanitizers, where wall time means nothing.
  const bool flat_in_n = quick || flat_ratio <= flat_limit;
  const bool headline_ok = quick || headline_speedup >= headline_target;
  json.field("digests_match", digests_match);
  json.field("counters_match", counters_match);
  json.field("flat_per_step_ratio", flat_ratio);
  json.field("flat_limit", flat_limit);
  json.field("flat_in_n", flat_in_n);
  json.field("pr8_baseline_seconds", kPr8BaselineSeconds);
  json.field("headline_parked_60step_seconds", headline_seconds);
  json.field("headline_speedup", headline_speedup);
  json.field("headline_target", headline_target);
  json.field("headline_meets_target", headline_ok);
  const std::string path = report.write();
  if (path.empty()) {
    std::fprintf(stderr, "cannot write bench report\n");
    return 1;
  }

  std::printf("\ndigests identical across modes: %s\n",
              digests_match ? "yes" : "NO — VISIT-ALL/PARKED DIVERGENCE");
  std::printf(
      "parked per-step flatness smallest->largest fleet: %.2fx (limit "
      "%.1fx)\n",
      flat_ratio, flat_limit);
  std::printf(
      "  median of %zu interleaved rounds (%.2fx..%.2fx); best passes alone "
      "%.2fx\n",
      round_ratios.size(),
      *std::min_element(round_ratios.begin(), round_ratios.end()),
      *std::max_element(round_ratios.begin(), round_ratios.end()),
      min_pass_ratio);
  std::printf("headline vs PR 8 baseline (%.2f s): %.1fx (target %.0fx)\n",
              kPr8BaselineSeconds, headline_speedup, headline_target);
  std::printf("wrote %s\n", path.c_str());
  return digests_match && counters_match && flat_in_n && headline_ok ? 0 : 1;
}
