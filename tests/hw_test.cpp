#include <gtest/gtest.h>

#include "hw/cpuidle.h"
#include "hw/energy_model.h"
#include "hw/rapl.h"
#include "hw/spec.h"
#include "hw/thermal.h"

namespace cleaks::hw {
namespace {

// ---------- RAPL ----------

TEST(Rapl, CounterAccumulatesMicrojoules) {
  RaplDomain domain(RaplDomainKind::kPackage);
  domain.add_energy_j(1.5);
  EXPECT_EQ(domain.energy_uj(), 1500000u);
  EXPECT_DOUBLE_EQ(domain.lifetime_energy_j(), 1.5);
}

TEST(Rapl, SubMicrojouleResidualCarries) {
  RaplDomain domain(RaplDomainKind::kCore);
  for (int i = 0; i < 1000; ++i) domain.add_energy_j(0.3e-6);
  // 1000 * 0.3 uJ = 300 uJ despite each increment being fractional.
  EXPECT_NEAR(static_cast<double>(domain.energy_uj()), 300.0, 1.0);
}

TEST(Rapl, CounterWrapsAtRange) {
  RaplDomain domain(RaplDomainKind::kPackage, /*range_uj=*/1000);
  domain.add_energy_j(0.0015);  // 1500 uJ
  EXPECT_EQ(domain.energy_uj(), 500u);
  EXPECT_DOUBLE_EQ(domain.lifetime_energy_j(), 0.0015);
}

TEST(Rapl, NegativeEnergyIgnored) {
  RaplDomain domain(RaplDomainKind::kDram);
  domain.add_energy_j(-5.0);
  EXPECT_EQ(domain.energy_uj(), 0u);
}

TEST(Rapl, DeltaHandlesWraparound) {
  EXPECT_DOUBLE_EQ(rapl_delta_j(100, 300, 1000), 200e-6);
  EXPECT_DOUBLE_EQ(rapl_delta_j(900, 100, 1000), 200e-6);  // wrapped once
}

// The §IV sampling-gap hazard: rapl_delta_j can only ever reconstruct a
// single wrap. Two wraps inside one sampling gap alias to the same wrapped
// delta, so the helper under-reports by a full range.
TEST(Rapl, DeltaUnderReportsMultipleWraps) {
  // True consumption 2200 uJ over a 1000 uJ range: 900 -> 100 with two
  // extra full wraps in between looks identical to the single-wrap case.
  EXPECT_DOUBLE_EQ(rapl_delta_j(900, 100, 1000), 200e-6);
}

TEST(Rapl, WrapCountTracksEveryWrap) {
  RaplDomain domain(RaplDomainKind::kPackage, /*range_uj=*/1000);
  EXPECT_EQ(domain.wrap_count(), 0u);
  domain.add_energy_j(0.0035);  // 3500 uJ = three wraps in one increment
  EXPECT_EQ(domain.energy_uj(), 500u);
  EXPECT_EQ(domain.wrap_count(), 3u);
  domain.add_energy_j(0.0006);  // 500 + 600 crosses once more
  EXPECT_EQ(domain.wrap_count(), 4u);
}

TEST(Rapl, PackageHierarchy) {
  RaplPackage pkg(0, /*has_dram=*/true);
  EXPECT_EQ(pkg.package_id(), 0);
  EXPECT_TRUE(pkg.has_dram());
  pkg.core().add_energy_j(1.0);
  EXPECT_EQ(pkg.core().energy_uj(), 1000000u);
  EXPECT_EQ(pkg.dram().energy_uj(), 0u);
}

TEST(Rapl, DomainNames) {
  EXPECT_EQ(to_string(RaplDomainKind::kPackage), "package");
  EXPECT_EQ(to_string(RaplDomainKind::kCore), "core");
  EXPECT_EQ(to_string(RaplDomainKind::kDram), "dram");
}

// ---------- EnergyModel ----------

TEST(EnergyModel, EnergyLinearInInstructions) {
  EnergyModelParams params;
  EnergyModel model(params);
  TickActivity a;
  a.active_seconds = 1.0;
  a.instructions = 1e9;
  const double e1 = model.core_activity_energy(a).core_j;
  a.instructions = 2e9;
  const double e2 = model.core_activity_energy(a).core_j;
  a.instructions = 3e9;
  const double e3 = model.core_activity_energy(a).core_j;
  // Equal increments in I produce equal increments in E (Fig 6 linearity).
  EXPECT_NEAR(e2 - e1, e3 - e2, 1e-9);
  EXPECT_GT(e2, e1);
}

TEST(EnergyModel, SlopeDependsOnMissMix) {
  EnergyModelParams params;
  EnergyModel model(params);
  TickActivity lean;
  lean.active_seconds = 1.0;
  lean.instructions = 1e9;
  lean.cache_misses = 1e5;
  TickActivity missy = lean;
  missy.cache_misses = 1e8;
  EXPECT_GT(model.core_activity_energy(missy).core_j,
            model.core_activity_energy(lean).core_j);
}

TEST(EnergyModel, DramLinearInCacheMisses) {
  EnergyModel model(EnergyModelParams{});
  TickActivity a;
  a.cache_misses = 1e6;
  const double d1 = model.core_activity_energy(a).dram_j;
  a.cache_misses = 2e6;
  const double d2 = model.core_activity_energy(a).dram_j;
  EXPECT_NEAR(d2, 2 * d1, 1e-12);
}

TEST(EnergyModel, BackgroundPowerMatchesParams) {
  EnergyModelParams params;
  params.p_uncore_w = 6.0;
  params.p_dram_idle_w = 2.0;
  EnergyModel model(params);
  const auto e = model.background_energy(2.0);
  EXPECT_DOUBLE_EQ(e.dram_j, 4.0);
  EXPECT_DOUBLE_EQ(e.package_j, 16.0);  // (6+2) W * 2 s
}

TEST(EnergyModel, PowerConversion) {
  TickEnergy e;
  e.package_j = 50.0;
  EXPECT_DOUBLE_EQ(EnergyModel::power_w(e, 2.0), 25.0);
  EXPECT_DOUBLE_EQ(EnergyModel::power_w(e, 0.0), 0.0);
}

// ---------- Thermal ----------

TEST(Thermal, StartsAtAmbient) {
  ThermalModel model(4);
  EXPECT_NEAR(model.temp_c(0), 38.0, 1e-9);
  EXPECT_EQ(model.temp_millic(0), 38000);
}

TEST(Thermal, ConvergesTowardPowerTarget) {
  ThermalModel model(1);
  for (int i = 0; i < 200; ++i) model.step_core(0, 20.0, thermal_decay(1.0));
  EXPECT_NEAR(model.temp_c(0), kAmbientC + kThetaCPerW * 20.0, 0.5);
}

TEST(Thermal, CoolsBackDown) {
  ThermalModel model(1);
  for (int i = 0; i < 100; ++i) model.step_core(0, 30.0, thermal_decay(1.0));
  const double hot = model.temp_c(0);
  for (int i = 0; i < 100; ++i) model.step_core(0, 0.0, thermal_decay(1.0));
  EXPECT_LT(model.temp_c(0), hot - 20.0);
}

TEST(Thermal, PerCoreIndependence) {
  ThermalModel model(2);
  for (int i = 0; i < 50; ++i) {
    model.step_core(0, 25.0, thermal_decay(1.0));
    model.step_core(1, 0.0, thermal_decay(1.0));
  }
  EXPECT_GT(model.temp_c(0), model.temp_c(1) + 10.0);
}

TEST(Thermal, OutOfRangeThrows) {
  ThermalModel model(2);
  EXPECT_THROW((void)model.temp_c(2), std::out_of_range);
  EXPECT_THROW((void)model.temp_c(-1), std::out_of_range);
}

// ---------- CpuIdle ----------

TEST(CpuIdle, AttributesToDeepestFittingState) {
  const auto states = HardwareSpec::default_cpuidle_states();
  CpuIdleAccounting acct(1, states);
  acct.record_idle(0, 500);  // fits C6 (min residency 200 us)
  const int deepest = acct.num_states() - 1;
  EXPECT_EQ(acct.usage(0, deepest), 1u);
  EXPECT_EQ(acct.time_us(0, deepest), 500u);
}

TEST(CpuIdle, ShortIdleUsesShallowState) {
  CpuIdleAccounting acct(1, HardwareSpec::default_cpuidle_states());
  acct.record_idle(0, 3);  // only POLL(0)/C1(2) fit
  EXPECT_EQ(acct.usage(0, 1), 1u);
  EXPECT_EQ(acct.usage(0, acct.num_states() - 1), 0u);
}

TEST(CpuIdle, ZeroIdleIgnored) {
  CpuIdleAccounting acct(1, HardwareSpec::default_cpuidle_states());
  acct.record_idle(0, 0);
  for (int s = 0; s < acct.num_states(); ++s) EXPECT_EQ(acct.usage(0, s), 0u);
}

TEST(CpuIdle, SeedSetsCounters) {
  CpuIdleAccounting acct(2, HardwareSpec::default_cpuidle_states());
  acct.seed(1, 2, 100, 5000);
  EXPECT_EQ(acct.usage(1, 2), 100u);
  EXPECT_EQ(acct.time_us(1, 2), 5000u);
  EXPECT_EQ(acct.usage(0, 2), 0u);
}

TEST(CpuIdle, IndexValidation) {
  CpuIdleAccounting acct(1, HardwareSpec::default_cpuidle_states());
  EXPECT_THROW((void)acct.usage(1, 0), std::out_of_range);
  EXPECT_THROW((void)acct.usage(0, 99), std::out_of_range);
}

// ---------- Spec factories ----------

TEST(Spec, TestbedMatchesPaper) {
  const auto spec = testbed_i7_6700();
  EXPECT_EQ(spec.num_cores, 8);
  EXPECT_DOUBLE_EQ(spec.freq_ghz, 3.4);
  EXPECT_EQ(spec.memory_bytes, 16ULL << 30);
  EXPECT_TRUE(spec.has_rapl);
  EXPECT_TRUE(spec.has_coretemp);
}

TEST(Spec, PreSandyBridgeHasNoRapl) {
  const auto spec = pre_sandy_bridge_server();
  EXPECT_FALSE(spec.has_rapl);
  EXPECT_FALSE(spec.has_dram_rapl);
}

TEST(Spec, CloudServerIsTwoSocket) {
  const auto spec = cloud_xeon_server();
  EXPECT_EQ(spec.num_packages, 2);
  EXPECT_EQ(spec.num_cores, 32);
  EXPECT_EQ(spec.numa_nodes, 2);
}

TEST(Spec, CyclesPerSecond) {
  const auto spec = testbed_i7_6700();
  EXPECT_DOUBLE_EQ(spec.cycles_per_second_per_core(), 3.4e9);
}

}  // namespace
}  // namespace cleaks::hw
