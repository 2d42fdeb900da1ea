// Tests for the fault-injection subsystem (src/faults): plan defaults and
// JSON round-trip, the pure-draw determinism contract, graceful
// degradation in the scanner / monitor / trainer, and the cross-lane
// digest of a fully faulted scan.
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/monitor.h"
#include "cloud/server.h"
#include "defense/trainer.h"
#include "faults/injector.h"
#include "faults/plan.h"
#include "leakage/detector.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "util/fnv.h"

namespace cleaks::faults {
namespace {

TEST(FaultPlanTest, DefaultsMatchDocumentedContract) {
  FaultRule rule;
  EXPECT_EQ(rule.kind, FaultKind::kTransientUnavailable);
  EXPECT_EQ(rule.path_glob, "**");
  EXPECT_DOUBLE_EQ(rule.rate, 1.0);
  EXPECT_EQ(rule.period, 2 * kSecond);
  EXPECT_EQ(rule.duration, 200 * kMillisecond);
  EXPECT_EQ(rule.start, 0);
  EXPECT_EQ(rule.end, 0);
  EXPECT_DOUBLE_EQ(rule.scale, 0.0);

  FaultPlan plan;
  EXPECT_EQ(plan.seed, 0u);
  EXPECT_TRUE(plan.empty());
  plan.rules.push_back(rule);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanTest, KindStringsRoundTrip) {
  for (FaultKind kind :
       {FaultKind::kTransientUnavailable, FaultKind::kPermanentDeny,
        FaultKind::kRaplWrapForce, FaultKind::kPerfDropout}) {
    const auto parsed = fault_kind_from_string(to_string(kind));
    ASSERT_TRUE(parsed.is_ok()) << to_string(kind);
    EXPECT_EQ(parsed.value(), kind);
  }
  const auto bad = fault_kind_from_string("quantum-bitflip");
  EXPECT_TRUE(bad.status().Matches(StatusCode::kInvalidArgument,
                                   "unknown fault kind"));
}

FaultPlan sample_plan() {
  FaultPlan plan;
  plan.seed = 99;
  FaultRule transient;
  transient.kind = FaultKind::kTransientUnavailable;
  transient.path_glob = "/proc/**";
  transient.rate = 0.25;
  transient.period = 3 * kSecond;
  transient.duration = 150 * kMillisecond;
  transient.start = kSecond;
  transient.end = kMinute;
  plan.rules.push_back(transient);
  FaultRule dropout;
  dropout.kind = FaultKind::kPerfDropout;
  dropout.rate = 0.5;
  dropout.scale = 0.75;
  plan.rules.push_back(dropout);
  return plan;
}

void expect_plans_equal(const FaultPlan& got, const FaultPlan& want) {
  EXPECT_EQ(got.seed, want.seed);
  ASSERT_EQ(got.rules.size(), want.rules.size());
  for (std::size_t i = 0; i < want.rules.size(); ++i) {
    const FaultRule& g = got.rules[i];
    const FaultRule& w = want.rules[i];
    EXPECT_EQ(g.kind, w.kind) << i;
    EXPECT_EQ(g.path_glob, w.path_glob) << i;
    EXPECT_DOUBLE_EQ(g.rate, w.rate) << i;
    EXPECT_EQ(g.period, w.period) << i;
    EXPECT_EQ(g.duration, w.duration) << i;
    EXPECT_EQ(g.start, w.start) << i;
    EXPECT_EQ(g.end, w.end) << i;
    EXPECT_DOUBLE_EQ(g.scale, w.scale) << i;
  }
}

TEST(FaultPlanTest, JsonRoundTripsThroughTheWriter) {
  const FaultPlan plan = sample_plan();
  obs::JsonWriter json;
  append_plan_json(plan, json);
  json.end_object();  // balance the root object the writer opened
  // The writer output is the wrapped form {"faults": {...}}.
  const auto parsed = parse_plan_json(json.str());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  expect_plans_equal(parsed.value(), plan);
}

TEST(FaultPlanTest, ParsesBareFormAndDefaults) {
  // A bare plan object with a partially specified rule: every omitted
  // member keeps its FaultRule default.
  const auto parsed = parse_plan_json(
      "{\"seed\": 7, \"rules\": [{\"kind\": \"permanent-deny\","
      " \"path_glob\": \"/sys/**\"}]}");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  const FaultPlan& plan = parsed.value();
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.rules.size(), 1u);
  EXPECT_EQ(plan.rules[0].kind, FaultKind::kPermanentDeny);
  EXPECT_EQ(plan.rules[0].path_glob, "/sys/**");
  EXPECT_DOUBLE_EQ(plan.rules[0].rate, 1.0);
  EXPECT_EQ(plan.rules[0].period, 2 * kSecond);
}

TEST(FaultPlanTest, ParseRejectsMalformedDocuments) {
  EXPECT_TRUE(parse_plan_json("{\"seed\": 1, \"bogus\": 2}")
                  .status()
                  .Matches(StatusCode::kInvalidArgument,
                           "unknown plan member: bogus"));
  EXPECT_TRUE(parse_plan_json("{\"rules\": [{\"kind\": \"nope\"}]}")
                  .status()
                  .Matches(StatusCode::kInvalidArgument,
                           "unknown fault kind"));
  EXPECT_TRUE(parse_plan_json("{\"seed\": 1} trailing")
                  .status()
                  .Matches(StatusCode::kInvalidArgument, "trailing"));
  EXPECT_TRUE(parse_plan_json("[1, 2]").status().Matches(
      StatusCode::kInvalidArgument, "expected '{'"));
}

// ---------- injector semantics ----------

TEST(FaultInjectorTest, TransientFaultsSpanTheWindowPrefix) {
  FaultPlan plan;
  FaultRule rule;  // rate 1.0: every window faults, span [0, 200ms)
  rule.path_glob = "/proc/**";
  plan.rules.push_back(rule);
  const FaultInjector injector(plan);
  EXPECT_EQ(injector.read_fault("/proc/stat", 0), StatusCode::kUnavailable);
  EXPECT_EQ(injector.read_fault("/proc/stat", 100 * kMillisecond),
            StatusCode::kUnavailable);
  EXPECT_EQ(injector.read_fault("/proc/stat", 200 * kMillisecond),
            StatusCode::kOk);
  EXPECT_EQ(injector.read_fault("/proc/stat", kSecond), StatusCode::kOk);
  // Next window faults again...
  EXPECT_EQ(injector.read_fault("/proc/stat", 2 * kSecond),
            StatusCode::kUnavailable);
  // ...and non-matching paths never fault.
  EXPECT_EQ(injector.read_fault("/sys/kernel/mm", 0), StatusCode::kOk);
}

TEST(FaultInjectorTest, QueriesArePureFunctions) {
  FaultPlan plan;
  plan.seed = 31;
  FaultRule rule;
  rule.rate = 0.5;
  plan.rules.push_back(rule);
  const FaultInjector first(plan);
  const FaultInjector second(plan);
  int faulted = 0;
  for (int window = 0; window < 200; ++window) {
    const SimTime at = window * rule.period + 50 * kMillisecond;
    const StatusCode verdict = first.read_fault("/proc/uptime", at);
    // Same plan => same schedule, and re-asking never changes the answer.
    EXPECT_EQ(second.read_fault("/proc/uptime", at), verdict);
    EXPECT_EQ(first.read_fault("/proc/uptime", at), verdict);
    if (verdict == StatusCode::kUnavailable) ++faulted;
  }
  // rate 0.5 over 200 windows: both extremes would mean a broken draw.
  EXPECT_GT(faulted, 50);
  EXPECT_LT(faulted, 150);
}

TEST(FaultInjectorTest, PermanentDenyFlipsAtStart) {
  FaultPlan plan;
  FaultRule rule;
  rule.kind = FaultKind::kPermanentDeny;
  rule.path_glob = "/sys/class/powercap/**";
  rule.start = kMinute;
  plan.rules.push_back(rule);
  const FaultInjector injector(plan);
  const std::string path = "/sys/class/powercap/intel-rapl:0/energy_uj";
  EXPECT_EQ(injector.read_fault(path, 0), StatusCode::kOk);
  EXPECT_EQ(injector.read_fault(path, kMinute),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(injector.read_fault(path, kHour),
            StatusCode::kPermissionDenied);
}

TEST(FaultInjectorTest, EndBoundsARule) {
  FaultPlan plan;
  FaultRule rule;
  rule.end = kSecond;  // covers window 0 only
  plan.rules.push_back(rule);
  const FaultInjector injector(plan);
  EXPECT_EQ(injector.read_fault("/proc/stat", 0), StatusCode::kUnavailable);
  EXPECT_EQ(injector.read_fault("/proc/stat", 2 * kSecond),
            StatusCode::kOk);
}

TEST(FaultInjectorTest, RaplWrapKeyedOnStepIndex) {
  FaultPlan plan;
  FaultRule rule;
  rule.kind = FaultKind::kRaplWrapForce;
  rule.rate = 0.3;
  plan.rules.push_back(rule);
  const FaultInjector injector(plan);
  int fired = 0;
  for (std::uint64_t step = 0; step < 100; ++step) {
    const bool wrap = injector.rapl_wrap_at_step(step, step * kSecond);
    EXPECT_EQ(injector.rapl_wrap_at_step(step, step * kSecond), wrap);
    if (wrap) ++fired;
  }
  EXPECT_GT(fired, 5);
  EXPECT_LT(fired, 70);
}

TEST(FaultInjectorTest, PerfRetentionTakesTheWorstDropout) {
  FaultPlan plan;
  FaultRule mild;
  mild.kind = FaultKind::kPerfDropout;
  mild.scale = 0.75;
  FaultRule harsh;
  harsh.kind = FaultKind::kPerfDropout;
  harsh.scale = 0.25;
  plan.rules.push_back(mild);
  plan.rules.push_back(harsh);
  const FaultInjector injector(plan);
  EXPECT_DOUBLE_EQ(injector.perf_retention(kSecond), 0.25);
  // An empty plan keeps every window.
  EXPECT_DOUBLE_EQ(FaultInjector(FaultPlan{}).perf_retention(kSecond), 1.0);
}

TEST(FaultInjectorTest, CoversIsAPureGlobOverReadFaultRules) {
  FaultPlan plan;
  FaultRule never;
  never.path_glob = "/proc/up*";
  never.rate = 0.0;  // a rule that never fires still *covers* its glob
  plan.rules.push_back(never);
  FaultRule perf;
  perf.kind = FaultKind::kPerfDropout;
  perf.path_glob = "**";
  plan.rules.push_back(perf);
  const FaultInjector injector(plan);
  EXPECT_TRUE(injector.covers("/proc/uptime"));
  // Perf dropout rules never gate reads, so their glob covers nothing.
  EXPECT_FALSE(injector.covers("/proc/version"));
}

// The pinned fault-safety contract: a path covered by any read-fault rule
// is never cacheable, even if the rule never fires, so its container reads
// do not count as viewer-cache renders.
TEST(ScanUnderFaultsTest, FaultCoveredPathsBypassViewerCache) {
  cloud::Server server("bypass-host", cloud::local_testbed(), 77);
  FaultPlan plan;
  FaultRule rule;
  rule.path_glob = "/proc/uptime";
  rule.rate = 0.0;
  plan.rules.push_back(rule);
  const FaultInjector injector(plan);
  server.fs().set_fault_injector(&injector);
  auto instance = server.runtime().create({});
  auto& misses =
      obs::Registry::global().counter("fs_viewer_cache_misses_total", "");
  std::string buffer;
  const std::uint64_t covered_before = misses.value();
  EXPECT_EQ(instance->read_file_into("/proc/uptime", buffer), StatusCode::kOk);
  EXPECT_EQ(misses.value(), covered_before);  // covered: never cacheable
  const std::uint64_t open_before = misses.value();
  EXPECT_EQ(instance->read_file_into("/proc/version", buffer),
            StatusCode::kOk);
  EXPECT_EQ(misses.value(), open_before + 1);  // uncovered path counts
}

// ---------- scanner degradation ----------

// Recoverable regime: every container read faults at the scan instant
// (offset 0 of a rate-1.0 window), but one 300 ms retry step clears the
// 200 ms fault span — well inside the 3 * 300 ms budget.
FaultPlan recoverable_plan() {
  FaultPlan plan;
  plan.seed = 12;
  FaultRule rule;
  rule.path_glob = "**";
  rule.rate = 1.0;
  rule.period = 2 * kSecond;
  rule.duration = 200 * kMillisecond;
  plan.rules.push_back(rule);
  return plan;
}

std::vector<leakage::FileFinding> scan_with(const FaultPlan& plan,
                                            int num_threads) {
  cloud::Server server("fault-host", cloud::local_testbed(), 77, 40 * kDay);
  const FaultInjector injector(plan);
  if (!plan.empty()) server.fs().set_fault_injector(&injector);
  leakage::ScanOptions options;
  options.num_threads = num_threads;
  leakage::CrossValidator validator(server, options);
  return validator.scan();
}

TEST(ScanUnderFaultsTest, RecoverableTransientsDoNotChangeTable1) {
  auto& retried = obs::Registry::global().counter(
      "scan_reads_retried_total", "");
  const std::uint64_t retried_before = retried.value();
  const auto baseline = scan_with(FaultPlan{}, 1);
  EXPECT_EQ(retried.value(), retried_before);  // fault-free scans never retry
  const auto faulted = scan_with(recoverable_plan(), 1);
  ASSERT_EQ(faulted.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(faulted[i].path, baseline[i].path);
    // The headline acceptance bit: transients inside the retry budget
    // change no classification — degraded-not-wrong starts at "not wrong".
    EXPECT_EQ(faulted[i].cls, baseline[i].cls) << faulted[i].path;
    EXPECT_FALSE(faulted[i].degraded) << faulted[i].path;
  }
  EXPECT_GT(retried.value(), retried_before);
}

TEST(ScanUnderFaultsTest, ExhaustedRetriesDegradeInsteadOfMisclassify) {
  cloud::Server server("degrade-host", cloud::local_testbed(), 77);
  FaultPlan plan;
  FaultRule rule;  // duration == period: the path never comes back
  rule.path_glob = "/proc/uptime";
  rule.duration = rule.period;
  plan.rules.push_back(rule);
  const FaultInjector injector(plan);
  server.fs().set_fault_injector(&injector);
  auto& degraded_total = obs::Registry::global().counter(
      "scan_channels_degraded_total", "");
  const std::uint64_t degraded_before = degraded_total.value();
  leakage::CrossValidator validator(server);
  std::map<std::string, leakage::FileFinding> by_path;
  for (const auto& finding : validator.scan()) {
    by_path[finding.path] = finding;
  }
  EXPECT_EQ(by_path.at("/proc/uptime").cls, leakage::LeakClass::kAbsent);
  EXPECT_TRUE(by_path.at("/proc/uptime").degraded);
  EXPECT_EQ(degraded_total.value(), degraded_before + 1);
  // A path outside the glob classifies normally through the same scan.
  EXPECT_EQ(by_path.at("/proc/version").cls, leakage::LeakClass::kLeaking);
  EXPECT_FALSE(by_path.at("/proc/version").degraded);
}

// FNV-1a over every finding (path bytes, class, degraded bit): a faulted
// scan must produce identical findings at every lane count.
std::uint64_t digest_of(const std::vector<leakage::FileFinding>& findings) {
  Fnv64 hash;
  for (const auto& finding : findings) {
    hash.add_string(finding.path);
    hash.add_byte(static_cast<unsigned char>(finding.cls));
    hash.add_byte(finding.degraded ? 1 : 0);
  }
  return hash.hash;
}

std::uint64_t findings_digest(int num_threads) {
  return digest_of(scan_with(recoverable_plan(), num_threads));
}

TEST(ScanUnderFaultsTest, FaultedScanBitwiseIdenticalAcrossLaneCounts) {
  const std::uint64_t serial = findings_digest(1);
  EXPECT_EQ(findings_digest(2), serial);
  EXPECT_EQ(findings_digest(4), serial);
  EXPECT_EQ(findings_digest(8), serial);
}

// Incremental warm scans under a partial fault plan: the covered paths
// re-run the full protocol every scan while the rest reuse — and the
// findings stay bitwise-identical at every lane count, warm and cold.
std::uint64_t warm_faulted_digest(int num_threads, std::uint64_t* cold) {
  cloud::Server server("warm-fault", cloud::local_testbed(), 77, 40 * kDay);
  FaultPlan plan;
  plan.seed = 12;
  FaultRule rule;
  rule.path_glob = "/proc/up*";  // covers /proc/uptime only
  rule.rate = 1.0;
  rule.period = 2 * kSecond;
  rule.duration = 200 * kMillisecond;
  plan.rules.push_back(rule);
  const FaultInjector injector(plan);
  server.fs().set_fault_injector(&injector);
  leakage::ScanOptions options;
  options.num_threads = num_threads;
  leakage::CrossValidator validator(server, options);
  const std::uint64_t first = digest_of(validator.scan());
  if (cold != nullptr) *cold = first;
  return digest_of(validator.scan());
}

TEST(ScanUnderFaultsTest, WarmIncrementalFaultedScanIdenticalAcrossLanes) {
  std::uint64_t cold_serial = 0;
  const std::uint64_t warm_serial = warm_faulted_digest(1, &cold_serial);
  EXPECT_EQ(warm_serial, cold_serial);  // reuse changes no classification
  for (const int lanes : {2, 4, 8}) {
    std::uint64_t cold = 0;
    EXPECT_EQ(warm_faulted_digest(lanes, &cold), warm_serial) << lanes;
    EXPECT_EQ(cold, cold_serial) << lanes;
  }
}

// ---------- monitor degradation ----------

TEST(MonitorUnderFaultsTest, HoldsCrestEstimateThroughDropout) {
  cloud::Server server("mon-host", cloud::local_testbed(), 41, 20 * kDay);
  auto instance = server.runtime().create({});
  attack::RaplMonitor monitor(*instance);
  EXPECT_FALSE(monitor.sample_w(kSecond).has_value());  // priming read
  server.step(2 * kSecond);
  const auto good = monitor.sample_w(2 * kSecond);
  ASSERT_TRUE(good.has_value());
  EXPECT_FALSE(monitor.degraded());

  FaultPlan plan;
  FaultRule rule;
  rule.path_glob = "/sys/class/powercap/**";
  rule.duration = rule.period;  // dropout for as long as the plan is live
  plan.rules.push_back(rule);
  const FaultInjector injector(plan);
  server.fs().set_fault_injector(&injector);
  server.step(2 * kSecond);
  const auto held = monitor.sample_w(2 * kSecond);
  ASSERT_TRUE(held.has_value());
  EXPECT_DOUBLE_EQ(*held, *good);  // the crest estimate survives the gap
  EXPECT_TRUE(monitor.degraded());

  server.fs().set_fault_injector(nullptr);
  server.step(2 * kSecond);
  // First clean read re-primes and still serves the held estimate...
  const auto repriming = monitor.sample_w(2 * kSecond);
  ASSERT_TRUE(repriming.has_value());
  EXPECT_DOUBLE_EQ(*repriming, *good);
  EXPECT_TRUE(monitor.degraded());
  // ...and the next one is a fresh measurement again.
  server.step(2 * kSecond);
  const auto fresh = monitor.sample_w(2 * kSecond);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_FALSE(monitor.degraded());
}

TEST(MonitorUnderFaultsTest, ImplausibleDeltaIsHeldAsWrapGlitch) {
  cloud::Server server("wrap-host", cloud::local_testbed(), 41, 20 * kDay);
  auto instance = server.runtime().create({});
  attack::RaplMonitor monitor(*instance);
  monitor.sample_w(kSecond);
  server.step(2 * kSecond);
  const auto good = monitor.sample_w(2 * kSecond);
  ASSERT_TRUE(good.has_value());
  // Any real wattage now reads as a wrap glitch...
  monitor.set_max_plausible_w(*good / 2.0);
  server.step(2 * kSecond);
  const auto held = monitor.sample_w(2 * kSecond);
  ASSERT_TRUE(held.has_value());
  EXPECT_DOUBLE_EQ(*held, *good);
  EXPECT_TRUE(monitor.degraded());
  // ...and restoring the threshold recovers without re-priming (the
  // glitched sample already re-primed the counters).
  monitor.set_max_plausible_w(1e6);
  server.step(2 * kSecond);
  const auto fresh = monitor.sample_w(2 * kSecond);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_FALSE(monitor.degraded());
}

// ---------- trainer degradation ----------

TEST(TrainerUnderFaultsTest, PoisonedCalibrationWindowsAreSkipped) {
  FaultPlan plan;
  FaultRule rule;
  rule.kind = FaultKind::kPerfDropout;
  rule.rate = 1.0;
  rule.scale = 0.5;
  plan.rules.push_back(rule);
  const FaultInjector injector(plan);

  defense::TrainerOptions options;
  options.duty_levels = {1.0};
  options.copies = 1;
  options.samples_per_level = 3;
  const std::vector<workload::Profile> profiles = {workload::power_virus()};

  kernel::Host clean_host("trainer-clean", hw::testbed_i7_6700(), 5);
  clean_host.set_tick_duration(100 * kMillisecond);
  const auto clean = defense::collect_training_samples(
      clean_host, profiles, options);
  EXPECT_EQ(clean.size(), 3u);

  options.faults = &injector;
  kernel::Host faulted_host("trainer-faulted", hw::testbed_i7_6700(), 5);
  faulted_host.set_tick_duration(100 * kMillisecond);
  auto& skipped = obs::Registry::global().counter(
      "defense_training_samples_skipped_total", "");
  const std::uint64_t skipped_before = skipped.value();
  const auto poisoned = defense::collect_training_samples(
      faulted_host, profiles, options);
  // rate 1.0 dropout: every window is poisoned; none may be scaled in.
  EXPECT_TRUE(poisoned.empty());
  EXPECT_EQ(skipped.value(), skipped_before + 3);
}

// ---------- engine wiring ----------

TEST(EngineFaultsTest, SpecJsonCarriesThePlan) {
  sim::ScenarioSpec spec;
  spec.single_server = sim::SingleServerSpec{};
  spec.faults = sample_plan();
  obs::JsonWriter json;
  sim::append_spec_json(spec, json);
  json.end_object();
  const std::string& doc = json.str();
  EXPECT_NE(doc.find("\"faults\""), std::string::npos);
  EXPECT_NE(doc.find("\"transient-unavailable\""), std::string::npos);
  EXPECT_NE(doc.find("\"perf-dropout\""), std::string::npos);
  // An empty plan stays out of the document entirely.
  obs::JsonWriter clean;
  sim::append_spec_json(sim::ScenarioSpec{}, clean);
  clean.end_object();
  EXPECT_EQ(clean.str().find("\"faults\""), std::string::npos);
}

TEST(EngineFaultsTest, WrapForceParksCountersAtStepBoundaries) {
  sim::ScenarioSpec spec;
  spec.single_server = sim::SingleServerSpec{};
  FaultRule rule;
  rule.kind = FaultKind::kRaplWrapForce;
  rule.rate = 1.0;
  spec.faults.rules.push_back(rule);
  sim::SimEngine engine(spec);
  ASSERT_NE(engine.fault_injector(), nullptr);
  engine.run_steps(5, kSecond);
  const auto& rapl = engine.server(0).host().rapl();
  ASSERT_FALSE(rapl.empty());
  // Every step parked the counters one microjoule from the wrap edge, so
  // each tick's energy wraps them: one wrap per step, and the lifetime
  // accumulators (physics) keep flowing through untouched.
  EXPECT_GE(rapl.front().package().wrap_count(), 5u);
  EXPECT_GT(rapl.front().package().lifetime_energy_j(), 0.0);
}

TEST(EngineFaultsTest, EmptyPlanBuildsNoInjector) {
  sim::ScenarioSpec spec;
  spec.single_server = sim::SingleServerSpec{};
  sim::SimEngine engine(spec);
  EXPECT_EQ(engine.fault_injector(), nullptr);
}

}  // namespace
}  // namespace cleaks::faults
