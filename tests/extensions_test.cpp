// Tests for the discussion/extension features: the no-RAPL attack path
// (§VII-A utilization monitor) and the thermal covert channel.
#include <gtest/gtest.h>

#include "containerleaks.h"

namespace cleaks {
namespace {

// ---------- UtilizationMonitor (§VII-A) ----------

TEST(UtilizationMonitor, TracksHostLoadWithoutRapl) {
  // CC4 hardware has no RAPL at all; /proc/stat still leaks utilization.
  cloud::CloudServiceProfile profile = cloud::cc4();
  profile.policy = fs::MaskingPolicy::docker_default();
  cloud::Server server("no-rapl", profile, 3);
  auto instance = server.runtime().create({});
  attack::UtilizationMonitor monitor(*instance);
  EXPECT_FALSE(monitor.sample_utilization(kSecond).has_value());  // priming
  server.step(5 * kSecond);
  const auto idle_util = monitor.sample_utilization(5 * kSecond);
  ASSERT_TRUE(idle_util.has_value());
  EXPECT_LT(*idle_util, 0.1);

  kernel::TaskBehavior busy;
  busy.duty_cycle = 1.0;
  const int cores = server.host().spec().num_cores;
  for (int i = 0; i < cores / 2; ++i) {
    server.host().spawn_task({.comm = "load", .behavior = busy});
  }
  server.step(5 * kSecond);
  const auto busy_util = monitor.sample_utilization(5 * kSecond);
  ASSERT_TRUE(busy_util.has_value());
  EXPECT_NEAR(*busy_util, 0.5, 0.1);  // half the cores saturated
}

TEST(UtilizationMonitor, BlindWhenStatIsMasked) {
  cloud::CloudServiceProfile profile = cloud::local_testbed();
  profile.policy.add_rule("/proc/stat", fs::MaskAction::kDeny);
  cloud::Server server("masked", profile, 4);
  auto instance = server.runtime().create({});
  attack::UtilizationMonitor monitor(*instance);
  server.step(kSecond);
  EXPECT_FALSE(monitor.sample_utilization(kSecond).has_value());
}

TEST(UtilizationMonitor, RestrictedStatShowsOnlyTenantCores) {
  // CC5-style restriction: the proxy only sees the tenant's own cpuset,
  // so a co-tenant's surge on other cores stays invisible — the partial
  // mitigation the paper observed.
  cloud::Server server("cc5", cloud::cc5(), 5);
  container::ContainerConfig config;
  config.num_cpus = 4;
  auto instance = server.runtime().create(config);
  attack::UtilizationMonitor monitor(*instance);
  monitor.sample_utilization(kSecond);
  server.step(2 * kSecond);
  const auto before = monitor.sample_utilization(2 * kSecond);
  ASSERT_TRUE(before.has_value());

  // Surge pinned to cores outside the tenant's cpuset.
  std::vector<int> other_cores;
  const auto& mine = instance->cpuset();
  for (int core = 0; core < server.host().spec().num_cores; ++core) {
    if (std::find(mine.begin(), mine.end(), core) == mine.end()) {
      other_cores.push_back(core);
    }
  }
  ASSERT_FALSE(other_cores.empty());
  kernel::TaskBehavior busy;
  busy.duty_cycle = 1.0;
  for (int core : other_cores) {
    kernel::Host::SpawnOptions options;
    options.comm = "elsewhere";
    options.behavior = busy;
    options.allowed_cpus = {core};
    server.host().spawn_task(options);
  }
  server.step(5 * kSecond);
  const auto during = monitor.sample_utilization(5 * kSecond);
  ASSERT_TRUE(during.has_value());
  EXPECT_LT(*during, *before + 0.1);  // surge invisible through CC5's view
}

// ---------- ThermalSignalDetector ----------

TEST(ThermalSignal, DetectsCoResidenceThroughCoretemp) {
  cloud::DatacenterConfig config;
  config.servers_per_rack = 2;
  config.benign_load = false;
  config.profile = cloud::local_testbed();
  cloud::Datacenter dc(config);
  auto a = dc.server(0).runtime().create({});
  auto b = dc.server(0).runtime().create({});
  auto c = dc.server(1).runtime().create({});
  coresidence::ProbeEnv env;
  env.advance = [&](SimDuration dt) { dc.step(dt); };
  coresidence::ThermalSignalDetector detector;
  EXPECT_EQ(detector.verify(*a, *b, env),
            coresidence::Verdict::kCoResident);
  EXPECT_EQ(detector.verify(*a, *c, env),
            coresidence::Verdict::kNotCoResident);
}

TEST(ThermalSignal, InconclusiveWithoutCoretemp) {
  cloud::CloudServiceProfile profile = cloud::local_testbed();
  profile.hardware.has_coretemp = false;
  cloud::DatacenterConfig config;
  config.servers_per_rack = 2;
  config.benign_load = false;
  config.profile = profile;
  cloud::Datacenter dc(config);
  auto a = dc.server(0).runtime().create({});
  auto b = dc.server(0).runtime().create({});
  coresidence::ProbeEnv env;
  env.advance = [&](SimDuration dt) { dc.step(dt); };
  coresidence::ThermalSignalDetector detector;
  EXPECT_EQ(detector.verify(*a, *b, env),
            coresidence::Verdict::kInconclusive);
}

}  // namespace
}  // namespace cleaks
