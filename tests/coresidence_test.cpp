#include <gtest/gtest.h>

#include "coresidence/detector.h"
#include "coresidence/evaluation.h"

namespace cleaks::coresidence {
namespace {

/// Two-server cloud with benign background load, plus containers with
/// known placement.
struct Fixture {
  Fixture() {
    cloud::DatacenterConfig config;
    config.servers_per_rack = 2;
    config.benign_load = true;
    config.seed = 23;
    // Stock Docker policy: no channel is masked (CC1 hides sched_debug).
    config.profile = cloud::local_testbed();
    dc = std::make_unique<cloud::Datacenter>(config);
    dc->step(5 * kSecond);  // let the generators establish a baseline

    container::ContainerConfig cc;
    cc.num_cpus = 8;
    cc.memory_limit_bytes = 8ULL << 30;
    same_a = dc->server(0).runtime().create(cc);
    same_b = dc->server(0).runtime().create(cc);
    other = dc->server(1).runtime().create(cc);
    env.advance = [this](SimDuration dt) { dc->step(dt); };
  }

  std::unique_ptr<cloud::Datacenter> dc;
  std::shared_ptr<container::Container> same_a, same_b, other;
  ProbeEnv env;
};

class DetectorTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<CoResidenceDetector> detector() {
    auto detectors = all_detectors();
    return std::move(detectors.at(static_cast<std::size_t>(GetParam())));
  }
};

TEST_P(DetectorTest, DetectsCoResidentPair) {
  Fixture fixture;
  auto det = detector();
  EXPECT_EQ(det->verify(*fixture.same_a, *fixture.same_b, fixture.env),
            Verdict::kCoResident)
      << det->name();
}

TEST_P(DetectorTest, RejectsCrossHostPair) {
  Fixture fixture;
  auto det = detector();
  EXPECT_EQ(det->verify(*fixture.same_a, *fixture.other, fixture.env),
            Verdict::kNotCoResident)
      << det->name();
}

INSTANTIATE_TEST_SUITE_P(AllDetectors, DetectorTest,
                         ::testing::Range(0, 10));  // all_detectors() size

TEST(Detectors, NamesAndOrder) {
  const auto detectors = all_detectors();
  ASSERT_EQ(detectors.size(), 10u);
  EXPECT_EQ(detectors[0]->name(), "boot_id");
  EXPECT_EQ(detectors[3]->name(), "timer_list");
  EXPECT_EQ(detectors.back()->name(), "coretemp");
}

TEST(Detectors, MaskedChannelYieldsInconclusive) {
  cloud::DatacenterConfig config;
  config.servers_per_rack = 2;
  config.benign_load = false;
  config.profile.policy = fs::MaskingPolicy::paper_stage1();
  cloud::Datacenter dc(config);
  auto a = dc.server(0).runtime().create({});
  auto b = dc.server(0).runtime().create({});
  ProbeEnv env;
  env.advance = [&](SimDuration dt) { dc.step(dt); };
  BootIdDetector boot_id;
  EXPECT_EQ(boot_id.verify(*a, *b, env), Verdict::kInconclusive);
  MemTraceDetector mem_trace;
  EXPECT_EQ(mem_trace.verify(*a, *b, env), Verdict::kInconclusive);
}

TEST(Detectors, EnergyDetectorInconclusiveWithoutRapl) {
  cloud::DatacenterConfig config;
  config.servers_per_rack = 2;
  config.profile = cloud::cc4();  // no RAPL hardware
  config.benign_load = false;
  cloud::Datacenter dc(config);
  auto a = dc.server(0).runtime().create({});
  auto b = dc.server(0).runtime().create({});
  ProbeEnv env;
  env.advance = [&](SimDuration dt) { dc.step(dt); };
  EnergyCounterDetector detector;
  EXPECT_EQ(detector.verify(*a, *b, env), Verdict::kInconclusive);
}

TEST(Detectors, UptimeToleranceSeparatesRackMates) {
  // Two servers in the same rack boot minutes apart: §IV-C uses *similar*
  // boot time as rack proximity, but the uptime equality check must still
  // call them different machines.
  Fixture fixture;
  UptimeDetector detector;
  EXPECT_EQ(
      detector.verify(*fixture.same_a, *fixture.other, fixture.env),
      Verdict::kNotCoResident);
}

TEST(Detectors, TimerImplantLeavesNoResidue) {
  Fixture fixture;
  TimerImplantDetector detector;
  detector.verify(*fixture.same_a, *fixture.same_b, fixture.env);
  // After verification the planted task is gone from the host view.
  const auto timers = fixture.same_b->read_file("/proc/timer_list").value();
  EXPECT_EQ(timers.find("probe"), std::string::npos);
}

TEST(Detectors, ProbeCostIsTheSimTimeVerifyAdvances) {
  // A probe costs what its verify() advances through the env: static ids
  // are instant, trace matching and covert signalling are the slowest.
  Fixture fixture;
  SimDuration advanced = 0;
  ProbeEnv counting;
  counting.advance = [&](SimDuration dt) {
    advanced += dt;
    fixture.env.advance(dt);
  };
  std::vector<SimDuration> costs;
  for (const auto& detector : all_detectors()) {
    advanced = 0;
    detector->verify(*fixture.same_a, *fixture.same_b, counting);
    costs.push_back(advanced);
  }
  // boot_id, ifpriomap, sched_debug, timer_list, locks, uptime, energy_uj,
  // meminfo-trace, power-signal, coretemp.
  const std::vector<SimDuration> expected = {
      0, 0, 2 * kSecond, 2 * kSecond, 6 * kSecond,
      0, kSecond, 60 * kSecond, 16 * kSecond, 60 * kSecond};
  EXPECT_EQ(costs, expected);
}

TEST(Detectors, VerdictNames) {
  EXPECT_EQ(to_string(Verdict::kCoResident), "co-resident");
  EXPECT_EQ(to_string(Verdict::kNotCoResident), "not-co-resident");
  EXPECT_EQ(to_string(Verdict::kInconclusive), "inconclusive");
}

// ---------- evaluation harness ----------

TEST(Evaluation, BootIdDetectorIsPerfect) {
  cloud::DatacenterConfig config;
  config.servers_per_rack = 3;
  config.benign_load = true;
  config.seed = 31;
  cloud::Datacenter dc(config);
  BootIdDetector detector;
  EvaluationOptions options;
  options.trials = 10;
  const auto result = evaluate_detector(dc, detector, options);
  EXPECT_EQ(result.trials, 10);
  EXPECT_EQ(result.accuracy(), 1.0);
  EXPECT_EQ(result.inconclusive, 0);
}

TEST(Evaluation, TimerImplantHighAccuracyUnderLoad) {
  cloud::DatacenterConfig config;
  config.servers_per_rack = 3;
  config.benign_load = true;
  config.seed = 32;
  cloud::Datacenter dc(config);
  TimerImplantDetector detector;
  EvaluationOptions options;
  options.trials = 8;
  const auto result = evaluate_detector(dc, detector, options);
  EXPECT_GE(result.accuracy(), 0.99);
}

TEST(Evaluation, ConfusionMatrixAddsUp) {
  cloud::DatacenterConfig config;
  config.servers_per_rack = 2;
  config.benign_load = false;
  cloud::Datacenter dc(config);
  UptimeDetector detector;
  EvaluationOptions options;
  options.trials = 6;
  const auto result = evaluate_detector(dc, detector, options);
  EXPECT_EQ(result.true_positive + result.false_positive +
                result.true_negative + result.false_negative +
                result.inconclusive,
            result.trials);
}

}  // namespace
}  // namespace cleaks::coresidence
