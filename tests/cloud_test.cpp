#include <gtest/gtest.h>

#include <stdexcept>

#include "cloud/billing.h"
#include "cloud/breaker.h"
#include "cloud/datacenter.h"
#include "cloud/profiles.h"
#include "cloud/provider.h"
#include "cloud/server.h"
#include "util/strings.h"

namespace cleaks::cloud {
namespace {

// ---------- circuit breaker ----------

TEST(Breaker, NoTripBelowRating) {
  CircuitBreaker breaker({.rated_w = 1000.0});
  for (int i = 0; i < 600; ++i) {
    EXPECT_FALSE(breaker.observe(950.0, kSecond));
  }
  EXPECT_FALSE(breaker.tripped());
}

TEST(Breaker, InstantTripOnLargeSpike) {
  CircuitBreaker breaker({.rated_w = 1000.0, .instant_trip_factor = 1.6});
  EXPECT_TRUE(breaker.observe(1700.0, kSecond));
  EXPECT_TRUE(breaker.tripped());
}

TEST(Breaker, ThermalTripIntegratesOverload) {
  BreakerSpec spec;
  spec.rated_w = 1000.0;
  spec.thermal_capacity = 12.0;
  CircuitBreaker breaker(spec);
  // 20% overload => 0.2/s of thermal budget => trips at 60 s.
  bool tripped = false;
  int seconds = 0;
  while (!tripped && seconds < 120) {
    tripped = breaker.observe(1200.0, kSecond);
    ++seconds;
  }
  EXPECT_TRUE(tripped);
  EXPECT_NEAR(seconds, 60, 2);
}

TEST(Breaker, HeavierOverloadTripsFaster) {
  auto time_to_trip = [](double power) {
    CircuitBreaker breaker({.rated_w = 1000.0});
    int seconds = 0;
    while (!breaker.tripped() && seconds < 1000) {
      breaker.observe(power, kSecond);
      ++seconds;
    }
    return seconds;
  };
  EXPECT_LT(time_to_trip(1500.0), time_to_trip(1200.0));
}

TEST(Breaker, CoolsWhenBelowRating) {
  BreakerSpec spec;
  spec.rated_w = 1000.0;
  spec.thermal_capacity = 12.0;
  CircuitBreaker breaker(spec);
  for (int i = 0; i < 50; ++i) breaker.observe(1200.0, kSecond);
  const double heated = breaker.thermal_state();
  for (int i = 0; i < 300; ++i) breaker.observe(500.0, kSecond);
  EXPECT_LT(breaker.thermal_state(), heated * 0.2);
  EXPECT_FALSE(breaker.tripped());
}

TEST(Breaker, TracksMaxPowerAndReset) {
  CircuitBreaker breaker({.rated_w = 100.0});
  breaker.observe(500.0, kSecond);
  EXPECT_TRUE(breaker.tripped());
  EXPECT_DOUBLE_EQ(breaker.max_power_seen_w(), 500.0);
  breaker.reset();
  EXPECT_FALSE(breaker.tripped());
}

// ---------- billing ----------

TEST(Billing, UtilizationDominatesCost) {
  BillingMeter meter;
  // 16 vCPUs for one hour at ~1% vs 100% utilization (paper's VMware
  // example: $2.87 vs $167.25 per month — a ~50x ratio).
  meter.charge("idle-tenant", 16, 16 * 36.0, kHour);      // 1% of 16 cpu-h
  meter.charge("busy-tenant", 16, 16 * 3600.0, kHour);    // 100%
  const double idle_cost = meter.total_cost("idle-tenant");
  const double busy_cost = meter.total_cost("busy-tenant");
  EXPECT_GT(busy_cost, idle_cost * 30.0);
  EXPECT_LT(busy_cost, idle_cost * 80.0);
}

TEST(Billing, MonthlyFigureMatchesCalculator) {
  BillingMeter meter;
  // 16 vCPUs fully busy for a 730-hour month.
  meter.charge("t", 16, 16 * 730.0 * 3600.0, 730 * kHour);
  EXPECT_NEAR(meter.total_cost("t"), 167.25, 10.0);
}

TEST(Billing, UnknownTenantIsZero) {
  BillingMeter meter;
  EXPECT_EQ(meter.total_cost("nobody"), 0.0);
  EXPECT_EQ(meter.cpu_hours("nobody"), 0.0);
}

TEST(Billing, CpuHoursAccumulate) {
  BillingMeter meter;
  meter.charge("t", 4, 7200.0, kHour);
  EXPECT_DOUBLE_EQ(meter.cpu_hours("t"), 2.0);
}

// ---------- cloud profiles ----------

TEST(Profiles, FiveCommercialClouds) {
  const auto clouds = all_commercial_clouds();
  ASSERT_EQ(clouds.size(), 5u);
  EXPECT_EQ(clouds[0].name, "CC1");
  EXPECT_EQ(clouds[4].name, "CC5");
}

TEST(Profiles, Cc4LacksRapl) {
  EXPECT_FALSE(cc4().hardware.has_rapl);
  EXPECT_TRUE(cc1().hardware.has_rapl);
}

TEST(Profiles, Cc5RestrictsCpuAndMemoryViews) {
  const auto profile = cc5();
  EXPECT_EQ(profile.policy.evaluate("/proc/meminfo"), fs::MaskAction::kRestrict);
  EXPECT_EQ(profile.policy.evaluate("/proc/cpuinfo"), fs::MaskAction::kRestrict);
  EXPECT_EQ(profile.policy.evaluate("/proc/locks"), fs::MaskAction::kDeny);
  EXPECT_EQ(profile.policy.evaluate("/proc/timer_list"),
            fs::MaskAction::kAllow);
}

TEST(Profiles, Cc1MasksOnlySchedDebug) {
  const auto profile = cc1();
  EXPECT_EQ(profile.policy.evaluate("/proc/sched_debug"),
            fs::MaskAction::kDeny);
  EXPECT_EQ(profile.policy.evaluate("/proc/timer_list"),
            fs::MaskAction::kAllow);
}

// ---------- server ----------

TEST(Server, PriorUptimeVisibleThroughProc) {
  Server server("s", local_testbed(), 1, 10 * kDay);
  fs::ViewContext ctx;
  const auto uptime = server.fs().read("/proc/uptime", ctx).value();
  EXPECT_NEAR(extract_numbers(uptime)[0], to_seconds(10 * kDay), 60.0);
}

TEST(Server, StepAdvancesHost) {
  Server server("s", local_testbed(), 1);
  server.step(5 * kSecond);
  EXPECT_EQ(server.host().now(), 5 * kSecond);
  EXPECT_GT(server.power_w(), 0.0);
}

TEST(Server, BenignLoadRaisesPower) {
  Server quiet("quiet", cc1(), 2);
  Server loaded("loaded", cc1(), 2);
  loaded.enable_benign_load(3);
  quiet.step(10 * kMinute);
  loaded.step(10 * kMinute);
  EXPECT_GT(loaded.power_w(), quiet.power_w() * 1.1);
}

// ---------- datacenter ----------

TEST(Datacenter, BuildsRequestedTopology) {
  DatacenterConfig config;
  config.num_racks = 2;
  config.servers_per_rack = 4;
  config.benign_load = false;
  Datacenter dc(config);
  EXPECT_EQ(dc.num_servers(), 8);
  EXPECT_EQ(dc.rack_of(0), 0);
  EXPECT_EQ(dc.rack_of(5), 1);
}

TEST(Datacenter, ServerIndexOutOfRangeThrows) {
  DatacenterConfig config;
  config.servers_per_rack = 2;
  config.benign_load = false;
  Datacenter dc(config);
  // The accessor checks the index before it reaches a server.
  EXPECT_THROW((void)dc.server(dc.num_servers()), std::out_of_range);
  EXPECT_THROW((void)dc.server(-1), std::out_of_range);
}

TEST(Datacenter, PinnedHostReplacesOnlyServerZero) {
  DatacenterConfig config;
  config.servers_per_rack = 3;
  config.benign_load = false;
  Datacenter stock(config);
  config.pinned_host = PinnedHost{.seed = 9, .prior_uptime = 10 * kDay};
  Datacenter pinned(config);
  const fs::ViewContext ctx;
  auto uptime = [&](Datacenter& dc, int server) {
    return dc.server(server).fs().read("/proc/uptime", ctx).value();
  };
  EXPECT_NEAR(extract_numbers(uptime(pinned, 0))[0], to_seconds(10 * kDay),
              60.0);
  EXPECT_NE(uptime(pinned, 0), uptime(stock, 0));
  EXPECT_EQ(uptime(pinned, 1), uptime(stock, 1));
  EXPECT_EQ(uptime(pinned, 2), uptime(stock, 2));
}

TEST(Datacenter, RackPowerSumsServers) {
  DatacenterConfig config;
  config.servers_per_rack = 4;
  config.benign_load = false;
  Datacenter dc(config);
  dc.step(5 * kSecond);
  double manual = 0.0;
  for (int i = 0; i < 4; ++i) manual += dc.server(i).power_w();
  EXPECT_NEAR(dc.rack_power_w(0), manual, 1e-9);
  EXPECT_NEAR(dc.total_power_w(), manual, 1e-9);
}

TEST(Datacenter, SameRackServersHaveCloseUptimes) {
  DatacenterConfig config;
  config.num_racks = 2;
  config.servers_per_rack = 4;
  config.benign_load = false;
  Datacenter dc(config);
  auto uptime_s = [&](int server) {
    fs::ViewContext ctx;
    return extract_numbers(
        dc.server(server).fs().read("/proc/uptime", ctx).value())[0];
  };
  // §IV-C heuristic: same rack => installed together (minutes apart);
  // different racks => weeks apart.
  EXPECT_LT(std::abs(uptime_s(0) - uptime_s(1)), 3600.0);
  EXPECT_GT(std::abs(uptime_s(0) - uptime_s(4)), to_seconds(5 * kDay));
}

TEST(Datacenter, BreakerSeesAggregatePower) {
  DatacenterConfig config;
  config.servers_per_rack = 2;
  config.benign_load = false;
  config.rack_breaker.rated_w = 50.0;  // absurdly low: must trip
  config.rack_breaker.instant_trip_factor = 2.0;
  config.rack_breaker.thermal_capacity = 2.0;
  Datacenter dc(config);
  for (int i = 0; i < 30 && !dc.any_breaker_tripped(); ++i) dc.step(kSecond);
  EXPECT_TRUE(dc.any_breaker_tripped());
}

TEST(Datacenter, RackCappingThrottlesAfterDelay) {
  DatacenterConfig config;
  config.servers_per_rack = 2;
  config.benign_load = false;
  config.rack_power_cap_w = 100.0;
  config.capping_interval = kMinute;
  Datacenter dc(config);
  // Saturate both servers.
  kernel::TaskBehavior burn;
  burn.duty_cycle = 1.0;
  burn.ipc = 2.5;
  for (int s = 0; s < 2; ++s) {
    for (int c = 0; c < dc.server(s).host().spec().num_cores; ++c) {
      dc.server(s).host().spawn_task({.comm = "burn", .behavior = burn});
    }
  }
  dc.step(30 * kSecond);
  const double before_cap = dc.rack_power_w(0);
  EXPECT_GT(before_cap, 300.0);  // uncapped for the first minute
  for (int i = 0; i < 200; ++i) dc.step(kSecond);
  EXPECT_LT(dc.rack_power_w(0), before_cap * 0.8);  // capper engaged
}

// ---------- provider ----------

TEST(Provider, LaunchPlacesOnSomeServer) {
  DatacenterConfig config;
  config.servers_per_rack = 4;
  config.benign_load = false;
  Datacenter dc(config);
  CloudProvider provider(dc, 17);
  auto instance = provider.launch("tenant-a");
  ASSERT_NE(instance, nullptr);
  const int server = provider.server_of(instance->instance_id);
  EXPECT_GE(server, 0);
  EXPECT_LT(server, 4);
  EXPECT_EQ(provider.instance_count(), 1u);
}

TEST(Provider, PlacementSpreadsOverServers) {
  DatacenterConfig config;
  config.servers_per_rack = 8;
  config.benign_load = false;
  Datacenter dc(config);
  CloudProvider provider(dc, 17);
  std::set<int> servers;
  for (int i = 0; i < 40; ++i) {
    servers.insert(provider.server_of(provider.launch("t")->instance_id));
  }
  EXPECT_GE(servers.size(), 6u);
}

TEST(Provider, TerminateDestroysContainer) {
  DatacenterConfig config;
  config.benign_load = false;
  Datacenter dc(config);
  CloudProvider provider(dc, 17);
  auto instance = provider.launch("t");
  const auto id = instance->instance_id;
  const int server = provider.server_of(id);
  EXPECT_TRUE(provider.terminate(id));
  EXPECT_EQ(dc.server(server).runtime().find(id), nullptr);
  EXPECT_FALSE(provider.terminate(id));
}

TEST(Provider, BinPackFillsOneServerFirst) {
  DatacenterConfig config;
  config.servers_per_rack = 4;
  config.benign_load = false;
  Datacenter dc(config);
  CloudProvider provider(dc, 17, BillingRates{}, PlacementPolicy::kBinPack,
                         /*max_instances_per_server=*/3);
  std::vector<int> placements;
  for (int i = 0; i < 6; ++i) {
    placements.push_back(provider.server_of(provider.launch("t")->instance_id));
  }
  // First three share a server; the next three share another.
  EXPECT_EQ(placements[0], placements[1]);
  EXPECT_EQ(placements[1], placements[2]);
  EXPECT_NE(placements[2], placements[3]);
  EXPECT_EQ(placements[3], placements[4]);
  EXPECT_EQ(placements[4], placements[5]);
}

TEST(Provider, SpreadNeverStacksWhileRoomElsewhere) {
  DatacenterConfig config;
  config.servers_per_rack = 4;
  config.benign_load = false;
  Datacenter dc(config);
  CloudProvider provider(dc, 18, BillingRates{}, PlacementPolicy::kSpread);
  std::set<int> first_round;
  for (int i = 0; i < 4; ++i) {
    first_round.insert(provider.server_of(provider.launch("t")->instance_id));
  }
  EXPECT_EQ(first_round.size(), 4u);  // one per server before any repeat
}

TEST(Provider, RandomAvoidsFullServers) {
  DatacenterConfig config;
  config.servers_per_rack = 2;
  config.benign_load = false;
  Datacenter dc(config);
  CloudProvider provider(dc, 19, BillingRates{}, PlacementPolicy::kRandom,
                         /*max_instances_per_server=*/4);
  std::vector<int> counts(2, 0);
  for (int i = 0; i < 8; ++i) {
    ++counts[static_cast<std::size_t>(
        provider.server_of(provider.launch("t")->instance_id))];
  }
  EXPECT_EQ(counts[0], 4);
  EXPECT_EQ(counts[1], 4);
}

TEST(Provider, PolicyNames) {
  EXPECT_EQ(to_string(PlacementPolicy::kRandom), "random");
  EXPECT_EQ(to_string(PlacementPolicy::kBinPack), "bin-pack");
  EXPECT_EQ(to_string(PlacementPolicy::kSpread), "spread");
}

TEST(Provider, BillingChargesBusyTenantMore) {
  DatacenterConfig config;
  config.benign_load = false;
  Datacenter dc(config);
  CloudProvider provider(dc, 17);
  auto idle_instance = provider.launch("idle");
  auto busy_instance = provider.launch("busy");
  kernel::TaskBehavior burn;
  burn.duty_cycle = 1.0;
  for (int i = 0; i < 4; ++i) busy_instance->handle->run("burn", burn);
  for (int i = 0; i < 60; ++i) provider.step(kSecond);
  EXPECT_GT(provider.billing().total_cost("busy"),
            provider.billing().total_cost("idle") * 5.0);
  EXPECT_GT(provider.billing().cpu_hours("busy"), 0.05);
}

}  // namespace
}  // namespace cleaks::cloud
