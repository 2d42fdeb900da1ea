// Tests for the scenario engine (src/sim): spec defaults and JSON
// serialization, the cross-lane determinism contract, the pinned testbed
// host, and the golden pin of Fig 3's pre-refactor headline numbers.
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fs/pseudo_fs.h"
#include "sim/engine.h"
#include "sim/scenarios.h"
#include "util/fnv.h"
#include "workload/profiles.h"

namespace cleaks::sim {
namespace {

std::string hexfloat(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

TEST(ScenarioSpecTest, DefaultsMatchDocumentedContract) {
  ScenarioSpec spec;
  EXPECT_EQ(spec.name, "scenario");
  EXPECT_FALSE(spec.datacenter.pinned_host.has_value());
  EXPECT_FALSE(spec.provider.has_value());
  EXPECT_FALSE(spec.warmup.has_value());
  EXPECT_EQ(spec.host_tick, 0);
  EXPECT_EQ(spec.fleet.placement, FleetSpec::Placement::kNone);
  EXPECT_EQ(spec.fleet.control, FleetSpec::Control::kIdle);
  EXPECT_TRUE(spec.fleet.deploy_on_build);
  EXPECT_FALSE(spec.defense.model.has_value());
  EXPECT_FALSE(spec.defense.enable);

  // The spec's facility defaults are DatacenterConfig's: a refactored
  // bench that sets nothing must build the same world the hand-rolled
  // version did.
  cloud::DatacenterConfig reference;
  EXPECT_EQ(spec.datacenter.num_racks, reference.num_racks);
  EXPECT_EQ(spec.datacenter.servers_per_rack, reference.servers_per_rack);
  EXPECT_EQ(spec.datacenter.seed, reference.seed);
  EXPECT_EQ(spec.datacenter.benign_load, reference.benign_load);
  EXPECT_EQ(spec.datacenter.num_threads, reference.num_threads);

  WarmupSpec warmup;
  EXPECT_EQ(warmup.until, 9 * kHour);
}

TEST(ScenarioSpecTest, SpecJsonCarriesEveryLayer) {
  ScenarioSpec spec = fig3_fleet(attack::StrategyKind::kSynergistic);
  obs::JsonWriter json;
  append_spec_json(spec, json);
  // Balance the root object the writer opened so str() is well-formed.
  json.end_object();
  const std::string& doc = json.str();
  EXPECT_NE(doc.find("\"spec\""), std::string::npos);
  EXPECT_NE(doc.find("\"datacenter\""), std::string::npos);
  EXPECT_NE(doc.find("\"servers_per_rack\": 8"), std::string::npos);
  EXPECT_NE(doc.find("\"warmup\""), std::string::npos);
  EXPECT_NE(doc.find("\"placement\": \"one-per-server\""), std::string::npos);
  EXPECT_NE(doc.find("\"strategy\": \"synergistic\""), std::string::npos);
  EXPECT_NE(doc.find("\"defense\""), std::string::npos);
}

TEST(ScenarioResultTest, ResultJsonRoundTripsFields) {
  ScenarioResult result;
  result.scenario = "unit";
  result.num_servers = 8;
  result.peak_total_w = 1359.0;
  result.spikes = 2;
  obs::JsonWriter json;
  result.append_json(json);
  json.end_object();
  const std::string& doc = json.str();
  EXPECT_NE(doc.find("\"result\""), std::string::npos);
  EXPECT_NE(doc.find("\"scenario\": \"unit\""), std::string::npos);
  EXPECT_NE(doc.find("\"num_servers\": 8"), std::string::npos);
  EXPECT_NE(doc.find("\"spikes\": 2"), std::string::npos);
}

// FNV-1a over the raw bit patterns of each step's facility power: any
// single-bit divergence between lane counts changes the digest.
std::uint64_t trace_digest(int num_threads) {
  ScenarioSpec spec;
  spec.name = "determinism";
  spec.datacenter.servers_per_rack = 8;
  spec.datacenter.benign_load = true;
  spec.datacenter.seed = 4248;
  spec.datacenter.num_threads = num_threads;
  SimEngine engine(spec);
  Fnv64 hash;
  engine.run_steps(600, kSecond, [&](SimEngine&, const StepContext& ctx) {
    hash.add_double(ctx.total_w);
  });
  hash.add_double(engine.result().peak_total_w);
  return hash.hash;
}

TEST(SimEngineTest, BitwiseIdenticalAcrossLaneCounts) {
  const std::uint64_t serial = trace_digest(1);
  EXPECT_EQ(trace_digest(2), serial);
  EXPECT_EQ(trace_digest(4), serial);
  EXPECT_EQ(trace_digest(8), serial);
}

TEST(SimEngineTest, ResetMeasurementScopesTheHeadlineWindow) {
  ScenarioSpec spec;
  spec.datacenter.servers_per_rack = 2;
  spec.datacenter.benign_load = true;
  spec.datacenter.seed = 9;
  SimEngine engine(spec);
  engine.run_steps(30, kSecond);
  EXPECT_EQ(engine.result().steps, 30u);
  engine.reset_measurement();
  EXPECT_EQ(engine.result().steps, 0u);
  engine.run_steps(10, kSecond);
  const ScenarioResult result = engine.result();
  EXPECT_EQ(result.steps, 10u);
  EXPECT_DOUBLE_EQ(result.sim_seconds, 10.0);
  EXPECT_GT(result.peak_total_w, 0.0);
  // The sim clock keeps the full history even though the window reset.
  EXPECT_DOUBLE_EQ(result.end_s, 40.0);
}

TEST(SimEngineTest, RunUntilReachesAbsoluteSimTime) {
  ScenarioSpec spec;
  spec.datacenter.servers_per_rack = 2;
  spec.datacenter.seed = 5;
  SimEngine engine(spec);
  engine.run_until(2 * kMinute, 30 * kSecond);
  EXPECT_EQ(engine.now(), 2 * kMinute);
  // Already there: no further steps.
  const std::uint64_t steps = engine.result().steps;
  engine.run_until(2 * kMinute, 30 * kSecond);
  EXPECT_EQ(engine.result().steps, steps);
}

TEST(SimEngineTest, RunForAdvancesExactlyTotalWithFinalPartialStep) {
  ScenarioSpec spec;
  spec.datacenter.servers_per_rack = 2;
  spec.datacenter.seed = 5;
  SimEngine engine(spec);
  // 95 s at 30 s steps: 30+30+30+5 — the old truncation ran 90 s.
  int hook_steps = 0;
  engine.run_for(95 * kSecond, 30 * kSecond,
                 [&](SimEngine&, const StepContext&) { ++hook_steps; });
  EXPECT_EQ(engine.now(), 95 * kSecond);
  EXPECT_EQ(hook_steps, 4);
  EXPECT_EQ(engine.result().steps, 4u);
  // Exact multiples keep the old behaviour: no extra step.
  engine.run_for(kMinute, 30 * kSecond);
  EXPECT_EQ(engine.now(), 95 * kSecond + kMinute);
  EXPECT_EQ(engine.result().steps, 6u);
  // A total smaller than dt is one partial step, not zero.
  engine.run_for(kSecond, 30 * kSecond);
  EXPECT_EQ(engine.now(), 96 * kSecond + kMinute);
  EXPECT_EQ(engine.result().steps, 7u);
}

TEST(SimEngineTest, ZeroStepLengthThrowsInEveryRunLoop) {
  ScenarioSpec spec;
  spec.datacenter.servers_per_rack = 2;
  spec.datacenter.seed = 5;
  SimEngine engine(spec);
  EXPECT_THROW(engine.run_steps(3, 0), std::invalid_argument);
  EXPECT_THROW(engine.run_for(kSecond, 0), std::invalid_argument);
  EXPECT_THROW(engine.run_until(kMinute, 0), std::invalid_argument);
  // A rejected call runs no step.
  EXPECT_EQ(engine.now(), 0u);
  EXPECT_EQ(engine.result().steps, 0u);
}

// ---------- the pinned testbed host ----------

// Everything the defense experiments read off their one host: the /proc
// files the leak channels render, package energy and host power.
std::string testbed_state(cloud::Server& server) {
  const fs::ViewContext host_view;
  std::string blob;
  for (const char* path :
       {"/proc/stat", "/proc/interrupts", "/proc/uptime", "/proc/loadavg",
        "/sys/class/powercap/intel-rapl:0/energy_uj"}) {
    blob += server.fs().read(path, host_view).value();
  }
  return blob + hexfloat(server.power_w());
}

// Table 3, the ablation stages and the namespace demo run on a pinned 1x1
// facility. Step for step it must be the bare Server those experiments
// were written against: same seed and uptime, and no coasting while a
// container is resident.
TEST(SimEngineTest, PinnedTestbedEqualsStandaloneServer) {
  const kernel::TaskBehavior milc = workload::spec_suite()[10].behavior;
  cloud::Server bare("x", cloud::local_testbed(), 404, 25 * kDay);
  bare.host().set_tick_duration(100 * kMillisecond);
  bare.runtime().create(container::ContainerConfig{})->run("433.milc", milc);

  std::vector<std::unique_ptr<SimEngine>> engines;
  for (const int lanes : {1, 4}) {
    ScenarioSpec spec;
    spec.datacenter.servers_per_rack = 1;
    spec.datacenter.benign_load = false;
    spec.datacenter.profile = cloud::local_testbed();
    spec.datacenter.pinned_host =
        cloud::PinnedHost{.seed = 404, .prior_uptime = 25 * kDay};
    spec.datacenter.num_threads = lanes;
    spec.host_tick = 100 * kMillisecond;
    spec.fleet.placement = FleetSpec::Placement::kDirect;
    engines.push_back(std::make_unique<SimEngine>(spec));
    engines.back()->fleet_instance(0).run("433.milc", milc);
  }
  for (int step = 0; step < 120; ++step) {
    bare.step(kSecond);
    const std::string expected = testbed_state(bare);
    for (auto& engine : engines) {
      engine->step(kSecond);
      ASSERT_EQ(testbed_state(engine->server(0)), expected) << "step " << step;
    }
  }
}

// Golden pin of the Fig 3 headline: the refactor onto fig3_fleet must not
// move a single bit of the pre-refactor bench outputs (same seeds, same
// traces). Values captured from the hand-rolled bench at the commit that
// introduced the scenario engine.
TEST(Fig3GoldenTest, SynergisticHeadlineBitsUnchanged) {
  SimEngine engine(fig3_fleet(attack::StrategyKind::kSynergistic));
  engine.set_fleet_control(FleetSpec::Control::kMonitor);
  engine.run_steps(7200, kSecond);
  engine.reset_measurement();
  engine.set_fleet_control(FleetSpec::Control::kCoordinated);
  engine.run_steps(3000, kSecond);
  EXPECT_EQ(hexfloat(engine.result().peak_total_w), "0x1.1dce476344e6ap+11");
  EXPECT_EQ(engine.crest_spikes(), 1);
  EXPECT_EQ(hexfloat(engine.fleet_attack_seconds()), "0x1.ep+6");  // 120 s
}

TEST(Fig3GoldenTest, PeriodicHeadlineBitsUnchanged) {
  SimEngine engine(fig3_fleet(attack::StrategyKind::kPeriodic));
  engine.run_steps(7200, kSecond);
  engine.reset_measurement();
  engine.set_fleet_control(FleetSpec::Control::kAutonomous);
  engine.run_steps(3000, kSecond);
  EXPECT_EQ(hexfloat(engine.result().peak_total_w), "0x1.1ca1f8960a35ap+11");
  EXPECT_EQ(engine.attacker(0).stats().spikes_launched, 10);
  EXPECT_EQ(hexfloat(engine.fleet_attack_seconds()), "0x1.2cp+10");  // 1200 s
}

}  // namespace
}  // namespace cleaks::sim
