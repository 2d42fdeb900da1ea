// Fig 6: the relation between core energy and the number of retired
// instructions. For each training workload (idle loop, prime,
// 462.libquantum, stress in two memory configurations) the bench sweeps
// execution intensity, samples (retired instructions, core energy) through
// perf + RAPL exactly as the paper's Perf-based collection does, prints the
// series, and fits a per-workload line.
//
// Paper headline: for every benchmark, energy is almost strictly linear in
// retired instructions, but the slope (gradient) differs per workload —
// which is why the model must include the miss-rate mix. The bench exits 1
// unless every fit is linear and the steepest slope exceeds the shallowest
// by more than 1.2x; the summary line prints both verdicts.
#include <cstdio>

#include "defense/trainer.h"
#include "obs/export.h"
#include "util/regression.h"
#include "workload/profiles.h"

using namespace cleaks;

int main() {
  std::printf("== Fig 6: core energy vs retired instructions ==\n\n");
  std::printf("workload,instructions,core_energy_j\n");

  struct FitRow {
    std::string name;
    double slope_nj = 0.0;
    double r2 = 0.0;
  };
  std::vector<FitRow> fits;

  for (const auto& profile : workload::training_set()) {
    kernel::Host host("fig6", hw::testbed_i7_6700(),
                      1000 + fnv1a64(profile.name) % 1000);
    host.set_tick_duration(100 * kMillisecond);
    defense::TrainerOptions options;
    options.duty_levels = {0.2, 0.4, 0.6, 0.8, 1.0};
    options.samples_per_level = 6;
    const auto samples =
        defense::collect_training_samples(host, {profile}, options);

    std::vector<std::vector<double>> features;
    std::vector<double> energy;
    for (const auto& sample : samples) {
      std::printf("%s,%.4e,%.3f\n", profile.name.c_str(),
                  sample.perf.instructions, sample.core_j);
      features.push_back({sample.perf.instructions, 1.0});
      energy.push_back(sample.core_j);
    }
    auto fit = fit_ols(features, energy);
    if (fit.is_ok()) {
      fits.push_back({profile.name, fit.value().coefficients[0] * 1e9,
                      fit.value().r2});
    }
  }

  std::printf("\nper-workload linear fit (energy vs instructions):\n");
  std::printf("  %-16s  slope(nJ/inst)  R^2\n", "workload");
  bool all_linear = true;
  double min_slope = 1e9;
  double max_slope = 0.0;
  for (const auto& fit : fits) {
    std::printf("  %-16s  %14.3f  %.4f\n", fit.name.c_str(), fit.slope_nj,
                fit.r2);
    all_linear = all_linear && fit.r2 > 0.95;
    min_slope = std::min(min_slope, fit.slope_nj);
    max_slope = std::max(max_slope, fit.slope_nj);
  }
  // The paper's second claim, that the gradient depends on the workload
  // mix, is checked as a max/min slope ratio above kMinSpreadRatio.
  constexpr double kMinSpreadRatio = 1.2;
  const double spread_ratio = max_slope / min_slope;
  const bool spread_ok = max_slope > min_slope * kMinSpreadRatio;
  std::printf("\nsummary: all workloads linear (R^2 > 0.95): %s; "
              "slope spread %.2f-%.2f nJ/inst = %.3fx (mix-dependent "
              "gradient > %.1fx: %s)\n",
              all_linear ? "YES" : "NO", min_slope, max_slope, spread_ratio,
              kMinSpreadRatio, spread_ok ? "YES" : "NO");
  std::printf(
      "paper: energy almost strictly linear per benchmark; gradients change "
      "with application type\n");

  obs::BenchReport report("fig6_core_energy_model");
  report.json().begin_array("fits");
  for (const auto& fit : fits) {
    report.json()
        .begin_object()
        .field("workload", fit.name)
        .field("slope_nj_per_inst", fit.slope_nj)
        .field("r2", fit.r2)
        .end_object();
  }
  report.json()
      .end_array()
      .field("all_linear", all_linear)
      .field("min_slope_nj", min_slope)
      .field("max_slope_nj", max_slope)
      .field("slope_spread_ratio", spread_ratio)
      .field("spread_ok", spread_ok);
  const std::string path = report.write();
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());
  return all_linear && spread_ok ? 0 : 1;
}
