// Overhead budget of the event bus on the step hot path: a 16-server
// facility stepped 120 s on a single lane with the bus disabled (one
// relaxed load per would-be emission) versus enabled with no consumer
// (every Host emits its 4 per-tick events into the rings). The enabled
// path must keep >= 95% of the disabled throughput, and both modes must
// produce the bitwise-identical power trace — telemetry observes the sim,
// never perturbs it. Timing runs a fixed number of interleaved A/B rounds
// (one run per mode, alternating which mode goes first); the gate is the
// median of the per-round throughput ratios, and the quartiles are
// reported as its spread. Rounds are timed on the wall clock: on a shared
// 4-vCPU VM the stepping thread's CPU clock gave the same round-ratio
// quartiles, alone and beside another bench process, so the spread is not
// time spent preempted.
//
// A second section exercises the consumers end to end on a small
// provider workload (container churn + faults would be overkill here:
// lifecycle + cgroup + per-tick samples suffice) and writes the sample
// artifacts CI validates: TRACE_event_stream_sample.json (Chrome trace)
// and FLIGHT_event_stream_sample.json (cleaks-events-v1 recorder dump).
//
// Emits BENCH_event_stream_throughput.json (cleaks-bench-v1).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cloud/datacenter.h"
#include "cloud/provider.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/stream.h"
#include "util/fnv.h"
#include "util/stats.h"
#include "util/thread_pool.h"

// Sanitizer instrumentation skews wall-clock enough that the 5% overhead
// budget is noise, not signal; those builds still enforce the digest,
// event-count and zero-drop checks and report the ratio informationally.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define CLEAKS_INSTRUMENTED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define CLEAKS_INSTRUMENTED_BUILD 1
#endif
#endif
#ifndef CLEAKS_INSTRUMENTED_BUILD
#define CLEAKS_INSTRUMENTED_BUILD 0
#endif

using namespace cleaks;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

cloud::DatacenterConfig facility() {
  cloud::DatacenterConfig config;
  config.num_racks = 2;
  config.servers_per_rack = 8;
  config.rack_breaker.rated_w = 8000.0;
  config.rack_power_cap_w = 6500.0;
  config.seed = 11;
  // Single lane: pure per-step emission cost, and ring wraps (if the
  // capacity were ever tiny) stay deterministic — see obs/events.h.
  config.num_threads = 1;
  return config;
}

constexpr int kSteps = 120;
// The datacenter profile's host tick matches the 1 s facility step, so
// each step is one run_tick per server, emitting 4 events (ctx-switch,
// perf, RAPL, thermal).
constexpr std::uint64_t kEventsPerServerStep = 4;

struct ModeRun {
  double seconds = 0.0;
  std::uint64_t power_digest = 0;
  std::uint64_t events = 0;  ///< drained after the timed loop (enabled only)
};

ModeRun run_mode(bool bus_enabled) {
  auto& bus = obs::EventBus::global();
  (void)bus.drain();  // start from empty rings
  bus.set_enabled(bus_enabled);
  cloud::Datacenter dc(facility());
  Fnv64 digest;
  const double start = now_seconds();
  for (int tick = 0; tick < kSteps; ++tick) {
    dc.step(kSecond);
    digest.add_double(dc.total_power_w());
  }
  const double elapsed = now_seconds() - start;
  ModeRun run;
  run.seconds = elapsed;
  run.power_digest = digest.hash;
  run.events = bus.drain().size();
  bus.set_enabled(false);
  return run;
}

/// Drive the flight recorder and the trace export on a small provider
/// workload and write the sample artifacts. Returns false on I/O failure.
bool write_sample_artifacts(obs::JsonWriter& json) {
  auto& bus = obs::EventBus::global();
  (void)bus.drain();
  bus.set_enabled(true);

  cloud::DatacenterConfig config = facility();
  config.num_racks = 1;
  config.servers_per_rack = 4;
  cloud::Datacenter dc(config);
  cloud::CloudProvider provider(dc, 5);

  obs::FlightRecorder recorder;
  recorder.set_enabled(true);
  recorder.set_window(60 * kSecond);

  std::vector<obs::Event> all;
  auto drain_into = [&] {
    const auto batch = bus.drain();
    recorder.feed(batch);
    all.insert(all.end(), batch.begin(), batch.end());
  };

  auto tenant_a = provider.launch("tenant-a");
  auto tenant_b = provider.launch("tenant-b");
  for (int tick = 0; tick < 30; ++tick) {
    provider.step(kSecond);
    if (tick == 20) provider.terminate(tenant_b->instance_id);
    drain_into();
  }
  provider.terminate(tenant_a->instance_id);
  drain_into();
  bus.set_enabled(false);

  const std::string trace_path =
      obs::bench_dir() + "/TRACE_event_stream_sample.json";
  if (!obs::write_text_file(trace_path, obs::to_chrome_trace(all))) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return false;
  }
  const std::string flight_path =
      recorder.dump_to_file("event_stream_sample");
  if (flight_path.empty()) {
    std::fprintf(stderr, "cannot write flight sample\n");
    return false;
  }
  std::printf("wrote %s\n", trace_path.c_str());
  std::printf("wrote %s\n", flight_path.c_str());

  json.field("sample_events", static_cast<std::uint64_t>(all.size()));
  json.field("trace_artifact", "TRACE_event_stream_sample.json");
  json.field("flight_artifact", "FLIGHT_event_stream_sample.json");
  return !all.empty();
}

}  // namespace

int main() {
  std::printf("== event stream throughput (16 servers, %d s, 1 lane) ==\n",
              kSteps);
  // No consumer runs during the timed loop; the default per-lane ring
  // (65536) comfortably holds the whole run's 7 680 events.
  constexpr double kMinRatio = CLEAKS_INSTRUMENTED_BUILD ? 0.0 : 0.95;
  constexpr int kRounds = 21;  // odd: the median is one round's ratio
  if (CLEAKS_INSTRUMENTED_BUILD) {
    std::printf("  (sanitizer build: overhead ratio is informational)\n");
  }

  const std::uint64_t expected_events =
      static_cast<std::uint64_t>(kSteps) * 16 * kEventsPerServerStep;
  std::vector<double> ratios;
  std::vector<double> disabled_seconds;
  std::vector<double> enabled_seconds;
  std::uint64_t events_per_run = 0;  ///< enabled-mode count, last round
  bool digests_match = true;
  bool counts_match = true;
  for (int round = 0; round < kRounds; ++round) {
    // Alternating the order cancels any drift that favours whichever mode
    // runs first (or second) within a round.
    const bool enabled_first = round % 2 == 1;
    ModeRun enabled;
    if (enabled_first) enabled = run_mode(true);
    const ModeRun disabled = run_mode(false);
    if (!enabled_first) enabled = run_mode(true);
    const double ratio =
        enabled.seconds > 0.0 ? disabled.seconds / enabled.seconds : 0.0;
    ratios.push_back(ratio);
    disabled_seconds.push_back(disabled.seconds);
    enabled_seconds.push_back(enabled.seconds);
    digests_match =
        digests_match && enabled.power_digest == disabled.power_digest;
    events_per_run = enabled.events;
    counts_match = counts_match && events_per_run == expected_events;
    std::printf(
        "  round %2d (%s first): disabled %7.1f ms, enabled %7.1f ms  "
        "(%.3fx throughput)\n",
        round, enabled_first ? "enabled " : "disabled", disabled.seconds * 1e3,
        enabled.seconds * 1e3, ratio);
  }
  const double median = percentile(ratios, 50.0);
  const double q1 = percentile(ratios, 25.0);
  const double q3 = percentile(ratios, 75.0);
  std::printf(
      "  median %.3fx throughput (quartiles %.3f..%.3f, gate >= %.2f)\n",
      median, q1, q3, kMinRatio);

  const bool overhead_ok = obs::bench_check(
      median >= kMinRatio, "event_stream_throughput",
      "event emission costs more than 5% of median step throughput");
  const bool perturbation_ok = obs::bench_check(
      digests_match, "event_stream_throughput",
      "power trace digest changed when the bus was enabled");
  const bool events_ok = obs::bench_check(
      counts_match && obs::EventBus::global().dropped() == 0,
      "event_stream_throughput", "unexpected event count or silent drops");

  obs::BenchReport report("event_stream_throughput");
  auto& json = report.json();
  json.field("steps", kSteps);
  json.field("servers", 16);
  json.field("default_lanes", ThreadPool::default_lanes());
  json.field("rounds", kRounds);
  json.begin_array("round_ratios");
  for (const double ratio : ratios) json.element(ratio);
  json.end_array();
  json.field("disabled_seconds_median", percentile(disabled_seconds, 50.0));
  json.field("enabled_seconds_median", percentile(enabled_seconds, 50.0));
  json.field("throughput_ratio_median", median);
  json.field("throughput_ratio_q1", q1);
  json.field("throughput_ratio_q3", q3);
  json.field("min_ratio", kMinRatio);
  json.field("events_per_run", events_per_run);
  json.field("digests_match", digests_match);
  const bool artifacts_ok = write_sample_artifacts(json);
  const std::string path = report.write();
  if (path.empty()) {
    std::fprintf(stderr, "cannot write bench report\n");
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());

  return overhead_ok && perturbation_ok && events_ok && artifacts_ok ? 0 : 1;
}
