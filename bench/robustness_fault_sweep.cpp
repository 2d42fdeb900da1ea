// Robustness sweep for the fault-injection layer: run the Table-1 scan
// under transient-read fault plans of increasing rate and measure how the
// classifications hold up. Two regimes:
//   * recoverable — fault spans (200 ms) shorter than the scanner's retry
//     budget (3 x 300 ms): every transient resolves, so accuracy vs the
//     fault-free baseline must stay 1.0 with zero degraded channels;
//   * harsh — spans (1.2 s) that outlast the budget: channels degrade to
//     the conservative kAbsent fallback, but degraded-not-wrong demands
//     zero *misclassifications* (a changed class without the degraded
//     flag).
// Also digests a faulted scan at 1/2/4/8 lanes: the fault schedule is a
// pure function of (seed, path, window), so injected runs must stay
// bitwise identical at every thread count. Emits
// BENCH_robustness_fault_sweep.json; exits nonzero on any violation.
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cloud/server.h"
#include "faults/injector.h"
#include "leakage/detector.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "util/fnv.h"

using namespace cleaks;

namespace {

faults::FaultPlan transient_plan(double rate, SimDuration duration) {
  faults::FaultPlan plan;
  plan.seed = 12;
  faults::FaultRule rule;
  rule.kind = faults::FaultKind::kTransientUnavailable;
  rule.path_glob = "**";
  rule.rate = rate;
  rule.period = 2 * kSecond;
  rule.duration = duration;
  plan.rules.push_back(rule);
  return plan;
}

std::vector<leakage::FileFinding> scan_with(const faults::FaultPlan& plan,
                                            int num_threads) {
  cloud::Server server("sweep-host", cloud::local_testbed(), 77, 40 * kDay);
  const faults::FaultInjector injector(plan);
  if (!plan.empty()) server.fs().set_fault_injector(&injector);
  leakage::ScanOptions options;
  options.num_threads = num_threads;
  leakage::CrossValidator validator(server, options);
  return validator.scan();
}

struct SweepPoint {
  double rate = 0.0;
  int paths = 0;
  int degraded = 0;
  int misclassified = 0;
  std::uint64_t retried = 0;
  double accuracy = 1.0;
};

SweepPoint measure(const std::map<std::string, leakage::LeakClass>& baseline,
                   const faults::FaultPlan& plan, double rate) {
  auto& retried_total =
      obs::Registry::global().counter("scan_reads_retried_total", "");
  const std::uint64_t retried_before = retried_total.value();
  const auto findings = scan_with(plan, /*num_threads=*/0);
  SweepPoint point;
  point.rate = rate;
  point.paths = static_cast<int>(findings.size());
  point.retried = retried_total.value() - retried_before;
  for (const auto& finding : findings) {
    if (finding.degraded) {
      ++point.degraded;
      continue;  // a degraded class is a declared unknown, never "wrong"
    }
    if (baseline.at(finding.path) != finding.cls) ++point.misclassified;
  }
  point.accuracy =
      point.paths == 0
          ? 1.0
          : 1.0 - static_cast<double>(point.misclassified) / point.paths;
  return point;
}

/// FNV-1a over every finding: path bytes, class, degraded bit.
std::uint64_t findings_digest(const std::vector<leakage::FileFinding>& findings) {
  Fnv64 hash;
  for (const auto& finding : findings) {
    hash.add_string(finding.path);
    hash.add_byte(static_cast<unsigned char>(finding.cls));
    hash.add_byte(finding.degraded ? 1 : 0);
  }
  return hash.hash;
}

void append_point(obs::JsonWriter& json, const SweepPoint& point) {
  json.begin_object()
      .field("rate", point.rate)
      .field("paths", point.paths)
      .field("reads_retried", point.retried)
      .field("degraded", point.degraded)
      .field("misclassified", point.misclassified)
      .field("accuracy", point.accuracy)
      .end_object();
}

}  // namespace

int main() {
  // Fault-free baseline: the ground truth every faulted scan is scored
  // against.
  std::map<std::string, leakage::LeakClass> baseline;
  for (const auto& finding : scan_with(faults::FaultPlan{}, 0)) {
    baseline[finding.path] = finding.cls;
  }
  std::printf("== robustness under injected faults (%zu paths) ==\n\n",
              baseline.size());

  bool violation = false;
  obs::BenchReport report("robustness_fault_sweep");

  // Recoverable regime: scan accuracy vs fault rate.
  std::printf("recoverable (200 ms spans, 900 ms retry budget):\n");
  std::printf("  %-6s %8s %10s %9s %14s %9s\n", "rate", "paths", "retried",
              "degraded", "misclassified", "accuracy");
  report.json().begin_array("recoverable");
  for (double rate : {0.0, 0.1, 0.25, 0.5, 1.0}) {
    const auto point =
        measure(baseline, transient_plan(rate, 200 * kMillisecond), rate);
    std::printf("  %-6.2f %8d %10llu %9d %14d %9.3f\n", rate, point.paths,
                (unsigned long long)point.retried, point.degraded,
                point.misclassified, point.accuracy);
    append_point(report.json(), point);
    // Below the retry budget nothing may change class or stay degraded.
    if (point.misclassified != 0 || point.degraded != 0) violation = true;
  }
  report.json().end_array();

  // Harsh regime: spans outlast the budget, channels must degrade — to the
  // conservative fallback, never to a wrong class.
  const auto harsh =
      measure(baseline, transient_plan(1.0, 1200 * kMillisecond), 1.0);
  std::printf("\nharsh (1.2 s spans outlast the budget):\n");
  std::printf("  degraded %d / %d paths, misclassified %d\n", harsh.degraded,
              harsh.paths, harsh.misclassified);
  report.json().begin_object("harsh");
  report.json()
      .field("rate", harsh.rate)
      .field("paths", harsh.paths)
      .field("degraded", harsh.degraded)
      .field("misclassified", harsh.misclassified);
  report.json().end_object();
  if (harsh.degraded == 0 || harsh.misclassified != 0) violation = true;

  // Cross-lane determinism of a faulted scan.
  std::printf("\nfaulted-scan digests:\n");
  report.json().begin_array("digests");
  const faults::FaultPlan plan = transient_plan(0.5, 200 * kMillisecond);
  std::uint64_t serial_digest = 0;
  bool identical = true;
  for (int threads : {1, 2, 4, 8}) {
    const std::uint64_t digest = findings_digest(scan_with(plan, threads));
    if (threads == 1) serial_digest = digest;
    if (digest != serial_digest) identical = false;
    std::printf("  %d thread(s): %016llx\n", threads,
                (unsigned long long)digest);
    char digest_hex[17];
    std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                  (unsigned long long)digest);
    report.json()
        .begin_object()
        .field("threads", threads)
        .field("digest", digest_hex)
        .end_object();
  }
  report.json().end_array();
  report.json().field("identical_across_threads", identical);
  if (!identical) violation = true;

  const std::string path = report.write();
  if (path.empty()) {
    std::fprintf(stderr, "cannot write bench report\n");
    return 1;
  }
  std::printf("\ngraceful degradation: %s\n",
              violation ? "VIOLATED" : "holds (degraded, never wrong)");
  std::printf("wrote %s\n", path.c_str());
  return violation ? 1 : 0;
}
