// Telemetry subsystem: deterministic lane-sharded metrics, the event
// stream, and the exporters behind every bench emission. The core
// contract under test is the PR-1 invariant extended to telemetry: merged
// metric values, snapshot digests and drained event streams are bitwise
// identical for every thread-pool lane count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <regex>
#include <string>
#include <vector>

#include "cloud/profiles.h"
#include "cloud/server.h"
#include "faults/plan.h"
#include "leakage/detector.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/stream.h"
#include "sim/engine.h"
#include "sim/scenario.h"
#include "util/thread_pool.h"

namespace cleaks::obs {
namespace {

// ---------- counters ----------

TEST(Counter, MergesLaneShardsToOneTotal) {
  Registry registry;
  Counter& counter = registry.counter("requests_total", "help");
  ThreadPool pool(4);
  pool.parallel_for(1000, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) counter.inc();
  });
  EXPECT_EQ(counter.value(), 1000u);
}

TEST(Counter, ValueIdenticalAcrossLaneCounts) {
  auto run = [](int lanes) {
    Registry registry;
    Counter& counter = registry.counter("c", "");
    ThreadPool pool(lanes);
    pool.parallel_for(777, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) counter.inc(i % 3 + 1);
    });
    return counter.value();
  };
  const std::uint64_t serial = run(1);
  for (int lanes : {2, 4, 8}) {
    EXPECT_EQ(run(lanes), serial) << lanes << " lanes";
  }
}

TEST(Registry, CounterIsFindOrCreateWithStableAddress) {
  Registry registry;
  Counter& first = registry.counter("same_name", "help");
  Counter& second = registry.counter("same_name", "different help ignored");
  EXPECT_EQ(&first, &second);
  first.inc(5);
  registry.reset();            // zeroes in place...
  EXPECT_EQ(first.value(), 0u);
  first.inc(2);                // ...handles stay usable
  EXPECT_EQ(second.value(), 2u);
}

// ---------- gauges ----------

TEST(Gauge, RoundTripsDoublesBitExactly) {
  Registry registry;
  Gauge& gauge = registry.gauge("g", "");
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.set(1234.5678);
  EXPECT_EQ(gauge.value(), 1234.5678);
  gauge.set(-0.25);
  EXPECT_EQ(gauge.value(), -0.25);
}

// ---------- histograms ----------

TEST(Histogram, BucketsByInclusiveUpperBound) {
  Registry registry;
  Histogram& hist = registry.histogram("h", {10, 20, 30}, "");
  for (std::uint64_t value : {5ull, 10ull, 11ull, 20ull, 30ull, 31ull, 99ull}) {
    hist.observe(value);
  }
  const auto counts = hist.counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);  // 5, 10
  EXPECT_EQ(counts[1], 2u);  // 11, 20
  EXPECT_EQ(counts[2], 1u);  // 30
  EXPECT_EQ(hist.overflow(), 2u);  // 31, 99
  EXPECT_EQ(hist.sum(), 5u + 10 + 11 + 20 + 30 + 31 + 99);
  EXPECT_EQ(hist.total_count(), 7u);
}

TEST(Histogram, MergeIdenticalAcrossLaneCounts) {
  auto run = [](int lanes) {
    Registry registry;
    Histogram& hist = registry.histogram("h", {100, 200, 400}, "");
    ThreadPool pool(lanes);
    pool.parallel_for(500, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) hist.observe(i);
    });
    auto merged = hist.counts();
    merged.push_back(hist.overflow());
    merged.push_back(hist.sum());
    return merged;
  };
  const auto serial = run(1);
  for (int lanes : {2, 4, 8}) {
    EXPECT_EQ(run(lanes), serial) << lanes << " lanes";
  }
}

// ---------- snapshot + digest ----------

TEST(Snapshot, SimDigestIdenticalAcrossLaneCounts) {
  auto run = [](int lanes) {
    Registry registry;
    Counter& counter = registry.counter("work_total", "");
    Histogram& hist = registry.histogram("work_size", {64, 256}, "");
    ThreadPool pool(lanes);
    pool.parallel_for(300, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        counter.inc();
        hist.observe(i * 7 % 512);
      }
    });
    registry.gauge("level", "").set(41.5);
    return registry.snapshot().digest(Scope::kSim);
  };
  const std::uint64_t serial = run(1);
  for (int lanes : {2, 4, 8}) {
    EXPECT_EQ(run(lanes), serial) << lanes << " lanes";
  }
}

TEST(Snapshot, RuntimeMetricsExcludedFromSimDigest) {
  Registry registry;
  registry.counter("sim_total", "").inc(3);
  Counter& runtime_counter =
      registry.counter("wall_total", "", Scope::kRuntime);
  Counter& lanes = registry.lane_counter("lane_total", "");
  const std::uint64_t before = registry.snapshot().digest(Scope::kSim);
  runtime_counter.inc(99);
  lanes.inc(7);
  EXPECT_EQ(registry.snapshot().digest(Scope::kSim), before);
  EXPECT_NE(registry.snapshot().digest(Scope::kRuntime), before);
}

// ---------- exporters ----------

TEST(Prometheus, GoldenRendering) {
  Registry registry;
  registry.counter("reads_total", "total reads").inc(3);
  registry.gauge("power_w", "live power").set(2.5);
  Histogram& hist = registry.histogram("latency", {10, 20}, "render time");
  hist.observe(5);
  hist.observe(15);
  hist.observe(99);
  registry.lane_counter("chunks_total", "per-lane chunks").inc(4);

  const std::string expected =
      "# HELP cleaks_chunks_total per-lane chunks\n"
      "# TYPE cleaks_chunks_total counter\n"
      "cleaks_chunks_total{lane=\"0\"} 4\n"
      "# HELP cleaks_latency render time\n"
      "# TYPE cleaks_latency histogram\n"
      "cleaks_latency_bucket{le=\"10\"} 1\n"
      "cleaks_latency_bucket{le=\"20\"} 2\n"
      "cleaks_latency_bucket{le=\"+Inf\"} 3\n"
      "cleaks_latency_sum 119\n"
      "cleaks_latency_count 3\n"
      "# HELP cleaks_power_w live power\n"
      "# TYPE cleaks_power_w gauge\n"
      "cleaks_power_w 2.5\n"
      "# HELP cleaks_reads_total total reads\n"
      "# TYPE cleaks_reads_total counter\n"
      "cleaks_reads_total 3\n";
  EXPECT_EQ(to_prometheus(registry.snapshot()), expected);
}

TEST(JsonExport, GoldenMetricsBlock) {
  Registry registry;
  registry.counter("reads_total", "").inc(2);
  registry.gauge("xi", "").set(0.25);

  JsonWriter writer;
  append_metrics_json(registry.snapshot(), writer);
  const std::string text = writer.str();
  EXPECT_NE(text.find("\"schema\": \"cleaks-metrics-v1\""), std::string::npos);
  EXPECT_NE(text.find("\"reads_total\": 2"), std::string::npos);
  EXPECT_NE(text.find("\"xi\": 0.25"), std::string::npos);
  char digest_hex[24];
  std::snprintf(digest_hex, sizeof digest_hex, "\"%016llx\"",
                static_cast<unsigned long long>(
                    registry.snapshot().digest(Scope::kSim)));
  EXPECT_NE(text.find(digest_hex), std::string::npos);
}

TEST(JsonWriter, EscapesAndNests) {
  JsonWriter writer;
  writer.field("quote", "a\"b\\c\nd");
  writer.begin_array("items").element(1).element(std::uint64_t{2}).end_array();
  writer.begin_object("child").field("flag", true).end_object();
  const std::string text = writer.str();
  EXPECT_NE(text.find("a\\\"b\\\\c\\nd"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
  EXPECT_EQ(text.front(), '{');
}

TEST(BenchReport, WritesEnvelopeToBenchDir) {
  char dir_template[] = "/tmp/cleaks_obs_test_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  setenv("CLEAKS_BENCH_DIR", dir_template, 1);

  Registry registry;
  registry.counter("n", "").inc();
  BenchReport report("exporter_test");
  report.json().field("payload", 7);
  const std::string path = report.write(registry);
  unsetenv("CLEAKS_BENCH_DIR");

  ASSERT_EQ(path, std::string(dir_template) + "/BENCH_exporter_test.json");
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::string text(1 << 14, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), file));
  std::fclose(file);
  std::remove(path.c_str());
  std::remove(dir_template);

  EXPECT_NE(text.find("\"schema\": \"cleaks-bench-v1\""), std::string::npos);
  EXPECT_NE(text.find("\"bench\": \"exporter_test\""), std::string::npos);
  EXPECT_NE(text.find("\"payload\": 7"), std::string::npos);
  EXPECT_NE(text.find("\"metrics\""), std::string::npos);
  // Second write is a no-op (the envelope is already closed).
  EXPECT_EQ(report.write(registry), "");
}

TEST(WriteTextFile, FailedFinalFlushIsAFailure) {
  // /dev/full accepts the open and the buffered write; only the flush in
  // fclose fails (ENOSPC), so a writer that ignores fclose reports success.
  EXPECT_FALSE(write_text_file("/dev/full", "payload\n"));
  EXPECT_FALSE(write_text_file("/nonexistent-dir/out.json", "payload\n"));
}

// ---------- /proc/containerleaks capstone ----------

TEST(ContainerLeaksFile, HostSeesTelemetryContainerSeesScopedStub) {
  cloud::Server server("obs-host", cloud::local_testbed(), 9, kDay);
  const fs::ViewContext host_ctx{};
  const auto host_view = server.fs().read("/proc/containerleaks", host_ctx);
  ASSERT_TRUE(host_view.is_ok());
  EXPECT_NE(host_view.value().find("# cleaks telemetry: host view"),
            std::string::npos);

  auto instance = server.runtime().create({});
  const auto container_view = instance->read_file("/proc/containerleaks");
  ASSERT_TRUE(container_view.is_ok());
  EXPECT_NE(container_view.value(), host_view.value());
  EXPECT_NE(container_view.value().find("namespaced view"),
            std::string::npos);
  EXPECT_NE(container_view.value().find(instance->id()), std::string::npos);
}

TEST(ContainerLeaksFile, HostRenderIsNotServedStale) {
  // The file is registered kUncacheable: registry updates must show up in
  // the next read even though the host generation never moved.
  cloud::Server server("obs-host", cloud::local_testbed(), 9, kDay);
  const fs::ViewContext host_ctx{};
  const auto before = server.fs().read("/proc/containerleaks", host_ctx);
  Registry::global()
      .counter("obs_test_poke_total", "cache-bypass witness")
      .inc();
  const auto after = server.fs().read("/proc/containerleaks", host_ctx);
  ASSERT_TRUE(before.is_ok());
  ASSERT_TRUE(after.is_ok());
  EXPECT_NE(before.value(), after.value());
  EXPECT_NE(after.value().find("obs_test_poke_total"), std::string::npos);
}

TEST(ContainerLeaksFile, ScanClassifiesAsNamespaced) {
  cloud::Server server("obs-host", cloud::local_testbed(), 77, 40 * kDay);
  leakage::CrossValidator validator(server);
  for (const auto& finding : validator.scan()) {
    if (finding.path == "/proc/containerleaks") {
      EXPECT_EQ(finding.cls, leakage::LeakClass::kNamespaced);
      return;
    }
  }
  FAIL() << "/proc/containerleaks missing from scan findings";
}

// ---------- event bus ----------

TEST(EventBus, TinyRingOverwritesOldestAndCountsDrops) {
  EventBus bus;
  bus.set_enabled(true);
  constexpr std::uint64_t kCapacity = EventBus::kCapacity;
  for (std::uint64_t i = 0; i < kCapacity + 3; ++i) {
    bus.emit(EventKind::kRaplSample, static_cast<SimTime>(i), /*source=*/0, i);
  }
  EXPECT_EQ(bus.dropped(), 3u);  // counted, never silent
  const auto events = bus.drain();
  ASSERT_EQ(events.size(), kCapacity);  // the newest survive, oldest-first
  for (std::uint64_t i = 0; i < kCapacity; ++i) {
    ASSERT_EQ(events[i].a, i + 3);
  }
  EXPECT_EQ(bus.dropped(), 0u);  // drain resets the wrap accounting
  EXPECT_TRUE(bus.drain().empty());
}

TEST(EventBus, MergedStreamAndDigestIdenticalAcrossLaneCounts) {
  // The same logical events, emitted from differently-chunked parallel
  // loops, must merge to one bitwise-identical stream: lane placement is
  // scheduling luck, the content sort erases it.
  auto run = [](int lanes) {
    EventBus bus;
    bus.set_enabled(true);
    ThreadPool pool(lanes);
    pool.parallel_for(64, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        bus.emit(EventKind::kScanFinding, static_cast<SimTime>(i % 7),
                 static_cast<std::uint32_t>(i), i * 3, i % 2);
      }
    });
    const auto merged = bus.drain();
    return std::pair(merged, EventBus::digest(merged));
  };
  const auto [reference, reference_digest] = run(1);
  ASSERT_EQ(reference.size(), 64u);
  for (int lanes : {2, 4, 8}) {
    const auto [merged, digest] = run(lanes);
    EXPECT_EQ(merged, reference) << lanes << " lanes";
    EXPECT_EQ(digest, reference_digest) << lanes << " lanes";
  }
}

// ---------- flight recorder ----------

TEST(FlightRecorder, EvictsOutsideWindowAndDumpsSchema) {
  FlightRecorder recorder;
  recorder.set_enabled(true);
  recorder.set_window(10 * kSecond);
  std::vector<Event> batch;
  batch.push_back({kSecond, EventKind::kRaplSample, 0, 1, 0});
  batch.push_back({2 * kSecond, EventKind::kRaplSample, 0, 2, 0});
  recorder.feed(batch);
  EXPECT_EQ(recorder.buffered().size(), 2u);
  batch.clear();
  batch.push_back({20 * kSecond, EventKind::kRaplSample, 0, 3, 0});
  recorder.feed(batch);  // latest 20 s, keep 10 s: the 1 s/2 s events go
  ASSERT_EQ(recorder.buffered().size(), 1u);
  EXPECT_EQ(recorder.buffered().front().time, 20 * kSecond);
  const std::string dump = recorder.dump_json();
  EXPECT_NE(dump.find("\"schema\": \"cleaks-events-v1\""), std::string::npos);
  EXPECT_NE(dump.find("\"kind\": \"rapl_sample\""), std::string::npos);
}

TEST(FlightRecorder, BenchCheckFailureDumpsBlackBox) {
  char dir_template[] = "/tmp/cleaks_flight_test_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  setenv("CLEAKS_BENCH_DIR", dir_template, 1);
  auto& recorder = FlightRecorder::global();
  recorder.set_enabled(true);
  std::vector<Event> batch;
  batch.push_back({kSecond, EventKind::kFaultInjected, 9, 13, 0});
  recorder.feed(batch);

  EXPECT_TRUE(bench_check(true, "obs_flight", "never fires"));
  EXPECT_FALSE(bench_check(false, "obs_flight", "injected bench failure"));

  recorder.set_enabled(false);
  unsetenv("CLEAKS_BENCH_DIR");
  const std::string path =
      std::string(dir_template) + "/FLIGHT_obs_flight.json";
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr) << "failed bench_check must dump the recorder";
  std::string text(1 << 14, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), file));
  std::fclose(file);
  std::remove(path.c_str());
  std::remove(dir_template);
  EXPECT_NE(text.find("\"schema\": \"cleaks-events-v1\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\": \"fault_injected\""), std::string::npos);
}

// ---------- engine-drained stream: the determinism pin ----------

sim::ScenarioSpec faulted_facility(int lanes) {
  sim::ScenarioSpec spec;
  spec.name = "obs-event-stream";
  spec.datacenter.num_racks = 3;
  spec.datacenter.servers_per_rack = 2;
  spec.datacenter.rack_breaker.rated_w = 4000.0;
  spec.datacenter.seed = 7;
  spec.datacenter.num_threads = lanes;
  sim::ProviderSpec provider;
  provider.seed = 21;
  spec.provider = provider;
  // Monitored fleet: the per-step RAPL reads are container-context reads
  // of fault-covered paths, so kFaultInjected events actually fire.
  spec.fleet.placement = sim::FleetSpec::Placement::kProviderLaunch;
  spec.fleet.count = 2;
  spec.fleet.monitors = true;
  spec.fleet.control = sim::FleetSpec::Control::kMonitor;
  faults::FaultRule rule;
  rule.kind = faults::FaultKind::kTransientUnavailable;
  rule.path_glob = "**";
  rule.rate = 0.5;
  rule.period = 2 * kSecond;
  rule.duration = 500 * kMillisecond;
  spec.faults.seed = 12;
  spec.faults.rules.push_back(rule);
  return spec;
}

struct StreamRun {
  std::uint64_t stream_digest = 0;
  std::uint64_t drained = 0;
  std::uint64_t dropped = 0;
  std::uint64_t sim_digest = 0;
  double peak_w = 0.0;
};

StreamRun run_faulted_facility(int lanes, bool with_stream) {
  Registry::global().reset();
  auto& bus = EventBus::global();
  (void)bus.drain();
  // Enable before construction so build-time producers (provider
  // launches, cgroup setup) land in the stream's first drained batch.
  if (with_stream) bus.set_enabled(true);
  sim::SimEngine engine(faulted_facility(lanes));
  if (with_stream) engine.enable_event_stream();
  engine.run_steps(200, kSecond);
  StreamRun run;
  run.stream_digest = engine.event_stream_digest();
  run.drained = engine.events_drained();
  run.dropped = bus.dropped();
  run.sim_digest = Registry::global().snapshot().digest(Scope::kSim);
  run.peak_w = engine.result().peak_total_w;
  bus.set_enabled(false);
  (void)bus.drain();
  return run;
}

// Recorded from the 3-rack faulted facility above (200 steps). The
// merged stream is a pure function of the scenario, so this
// digest — like the sim_test scenario digests — must never move.
constexpr std::uint64_t kStreamGoldenDigest = 0x263ca36d48318514ull;

TEST(EventStream, FacilityDigestPinnedAndIdenticalAcrossLanes) {
  const StreamRun reference = run_faulted_facility(1, true);
  EXPECT_GT(reference.drained, 0u);
  EXPECT_EQ(reference.dropped, 0u);  // per-step drain never wraps a ring
  for (int lanes : {2, 4, 8}) {
    const StreamRun run = run_faulted_facility(lanes, true);
    EXPECT_EQ(run.stream_digest, reference.stream_digest)
        << lanes << " lanes";
    EXPECT_EQ(run.drained, reference.drained) << lanes << " lanes";
    EXPECT_EQ(run.dropped, 0u) << lanes << " lanes";
  }
  EXPECT_EQ(reference.stream_digest, kStreamGoldenDigest)
      << "actual 0x" << std::hex << reference.stream_digest;
}

TEST(EventStream, ObservationNeverPerturbsTheSim) {
  // Faulted reads emit kFaultInjected — but whether anyone is listening
  // must not change one simulated bit: registry digest and peak power are
  // identical with the stream on and off.
  const StreamRun off = run_faulted_facility(1, false);
  auto& recorder = FlightRecorder::global();
  recorder.set_enabled(true);
  recorder.set_window(500 * kSecond);
  const StreamRun on = run_faulted_facility(1, true);
  recorder.set_enabled(false);
  EXPECT_EQ(on.sim_digest, off.sim_digest);
  EXPECT_EQ(on.peak_w, off.peak_w);
  EXPECT_EQ(off.stream_digest, 0u);  // stream disabled: nothing drained
  // The engine fed the enabled recorder; the faults really were recorded.
  bool saw_fault = false;
  bool saw_lifecycle = false;
  for (const Event& event : recorder.buffered()) {
    saw_fault |= event.kind == EventKind::kFaultInjected;
    saw_lifecycle |= event.kind == EventKind::kContainerLifecycle;
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_lifecycle);
}

// ---------- chrome trace export ----------

TEST(ChromeTrace, EmitsTracksCountersInstantsAndSlices) {
  std::vector<Event> events;
  events.push_back({kSecond, EventKind::kRaplSample, 0, 145'000, 99});
  events.push_back({kSecond, EventKind::kContainerLifecycle, 0, 1, 0xabcd});
  events.push_back({2 * kSecond, EventKind::kFaultInjected, 7, 13, 4});
  events.push_back({3 * kSecond, EventKind::kContainerLifecycle, 0, 0, 0xabcd});
  const std::string trace = to_chrome_trace(events);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"server-0\""), std::string::npos);  // process track
  EXPECT_NE(trace.find("\"ph\": \"C\""), std::string::npos);  // counter
  EXPECT_NE(trace.find("\"ph\": \"i\""), std::string::npos);  // instant
  EXPECT_NE(trace.find("\"ph\": \"b\""), std::string::npos);  // slice open
  EXPECT_NE(trace.find("\"ph\": \"e\""), std::string::npos);  // slice close
}

// ---------- prometheus exposition lint ----------

TEST(Prometheus, ExpositionFormatLint) {
  Registry registry;
  registry.counter("reads_total", "back\\slash and\nnewline").inc();
  registry.gauge("not_a_number", "NaN gauge").set(std::nan(""));
  registry.gauge("very_high", "inf gauge").set(HUGE_VAL);
  registry.gauge("very_low", "neg inf gauge").set(-HUGE_VAL);
  registry.histogram("lat", {5, 10}, "hist").observe(7);
  registry.lane_counter("lanes_total", "lane counter").inc(2);
  const std::string text = to_prometheus(registry.snapshot());

  // Non-finite floats must use the exposition spellings, and HELP must
  // escape backslash and newline.
  EXPECT_NE(text.find("cleaks_not_a_number NaN\n"), std::string::npos);
  EXPECT_NE(text.find("cleaks_very_high +Inf\n"), std::string::npos);
  EXPECT_NE(text.find("cleaks_very_low -Inf\n"), std::string::npos);
  EXPECT_NE(text.find("back\\\\slash and\\nnewline"), std::string::npos);

  // Line-level grammar lint: every line is a HELP, a TYPE with a known
  // metric type, or a sample whose value parses under the exposition
  // number grammar.
  const std::regex help_re(R"(# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*)");
  const std::regex type_re(
      R"(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram))");
  const std::regex sample_re(
      R"([a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|\+Inf|-Inf|[-+]?[0-9][0-9eE.+-]*))");
  std::size_t start = 0;
  int lines = 0;
  while (start < text.size()) {
    const std::size_t stop = text.find('\n', start);
    ASSERT_NE(stop, std::string::npos) << "file must end with a newline";
    const std::string line = text.substr(start, stop - start);
    start = stop + 1;
    ++lines;
    EXPECT_TRUE(std::regex_match(line, help_re) ||
                std::regex_match(line, type_re) ||
                std::regex_match(line, sample_re))
        << "non-conforming exposition line: " << line;
  }
  EXPECT_GT(lines, 10);
}

}  // namespace
}  // namespace cleaks::obs
