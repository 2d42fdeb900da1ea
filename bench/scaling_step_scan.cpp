// Scaling benchmark for the parallel simulation engine: wall-clock time of
// (a) Datacenter::step over a 16-server facility and (b) a full
// CrossValidator::scan, at 1/2/4/8 execution lanes. Every run also digests
// its results so the determinism contract — bitwise-identical output for
// every thread count — is checked, not assumed. Emits BENCH_scaling.json
// through the shared cleaks-bench-v1 exporter.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cloud/datacenter.h"
#include "cloud/profiles.h"
#include "cloud/server.h"
#include "leakage/detector.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "util/fnv.h"

using namespace cleaks;

namespace {

struct Run {
  int threads = 0;
  double seconds = 0.0;
  std::uint64_t digest = 0;
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Run bench_datacenter_step(int threads) {
  cloud::DatacenterConfig config;
  config.num_racks = 2;
  config.servers_per_rack = 8;
  config.rack_breaker.rated_w = 8000.0;
  config.rack_power_cap_w = 6500.0;
  config.seed = 11;
  config.num_threads = threads;
  cloud::Datacenter dc(config);

  Fnv64 digest;
  const double start = now_seconds();
  for (int tick = 0; tick < 120; ++tick) {
    dc.step(kSecond);
    digest.add_double(dc.total_power_w());
  }
  const double elapsed = now_seconds() - start;
  for (int s = 0; s < dc.num_servers(); ++s) {
    digest.add_double(dc.server(s).power_w());
  }
  return {threads, elapsed, digest.hash};
}

Run bench_scan(int threads) {
  cloud::Server server("bench-host", cloud::local_testbed(), 77, 40 * kDay);
  leakage::ScanOptions options;
  options.num_threads = threads;
  leakage::CrossValidator validator(server, options);

  const double start = now_seconds();
  const auto findings = validator.scan();
  const double elapsed = now_seconds() - start;

  Fnv64 digest;
  for (const auto& finding : findings) {
    digest.add_string(finding.path);
    digest.add_string(leakage::to_string(finding.cls));
  }
  return {threads, elapsed, digest.hash};
}

void report_runs(obs::JsonWriter& json, const char* name,
                 const std::vector<Run>& runs, bool* identical) {
  std::printf("%s:\n", name);
  json.begin_array(name);
  for (const auto& run : runs) {
    const double speedup = runs[0].seconds / run.seconds;
    std::printf("  %d thread(s): %8.1f ms  (%.2fx)  digest %016llx\n",
                run.threads, run.seconds * 1e3, speedup,
                (unsigned long long)run.digest);
    char digest_hex[17];
    std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                  (unsigned long long)run.digest);
    json.begin_object()
        .field("threads", run.threads)
        .field("seconds", run.seconds)
        .field("speedup", speedup)
        .field("digest", digest_hex)
        .end_object();
    if (run.digest != runs[0].digest) *identical = false;
  }
  json.end_array();
}

}  // namespace

int main() {
  const std::vector<int> lane_counts = {1, 2, 4, 8};
  std::printf("== parallel engine scaling (hardware_concurrency = %u) ==\n\n",
              std::thread::hardware_concurrency());

  std::vector<Run> step_runs;
  std::vector<Run> scan_runs;
  for (int threads : lane_counts) {
    step_runs.push_back(bench_datacenter_step(threads));
  }
  for (int threads : lane_counts) {
    scan_runs.push_back(bench_scan(threads));
  }

  obs::BenchReport report("scaling");
  report.json().field("hardware_concurrency",
                      std::thread::hardware_concurrency());
  bool identical = true;
  report_runs(report.json(), "datacenter_step", step_runs, &identical);
  report_runs(report.json(), "scan", scan_runs, &identical);
  report.json().field("identical_across_threads", identical);
  const std::string path = report.write();
  if (path.empty()) {
    std::fprintf(stderr, "cannot write bench report\n");
    return 1;
  }

  std::printf("\nidentical output across thread counts: %s\n",
              identical ? "yes" : "NO — DETERMINISM VIOLATION");
  std::printf("wrote %s\n", path.c_str());
  return identical ? 0 : 1;
}
