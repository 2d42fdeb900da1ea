#include "faults/injector.h"

#include <algorithm>

#include "obs/events.h"
#include "obs/metrics.h"
#include "util/strings.h"

namespace cleaks::faults {
namespace {

// Fault telemetry. Injection decisions are pure functions of (plan, path,
// sim time) and the set of reads the simulation performs is itself
// deterministic, so these counters merge to the same totals at every
// thread count: Scope::kSim.
struct FaultMetrics {
  obs::Counter& injected = obs::Registry::global().counter(
      "faults_injected_total", "reads answered with an injected fault");
  obs::Counter& denied = obs::Registry::global().counter(
      "faults_denied_total", "reads answered with an injected EACCES flip");
  obs::Counter& rapl_wraps = obs::Registry::global().counter(
      "faults_rapl_wraps_forced_total", "RAPL counter wraps forced at steps");
  obs::Counter& perf_dropouts = obs::Registry::global().counter(
      "faults_perf_dropouts_total",
      "perf sampling windows hit by multiplexing dropout");

  static FaultMetrics& get() {
    static FaultMetrics metrics;
    return metrics;
  }
};

// Subject keys for the non-path-keyed fault kinds.
constexpr std::uint64_t kRaplSubject = 0x7261706c;  // "rapl"
constexpr std::uint64_t kPerfSubject = 0x70657266;  // "perf"

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), base_(plan_.seed ^ 0xfa017ab1ef5ull) {}

double FaultInjector::draw01(std::uint64_t rule_index, std::uint64_t subject,
                             std::uint64_t window) const {
  // fork() never advances the parent, so this chain is a pure keyed hash:
  // the same (rule, subject, window) triple yields the same draw forever.
  Rng stream = base_.fork(rule_index).fork(subject).fork(window);
  return stream.uniform01();
}

bool FaultInjector::rule_active(const FaultRule& rule, SimTime now) const {
  if (now < rule.start) return false;
  if (rule.end != 0 && now >= rule.end) return false;
  return true;
}

StatusCode FaultInjector::read_fault(std::string_view path,
                                     SimTime now) const {
  if (plan_.rules.empty()) return StatusCode::kOk;
  std::uint64_t path_hash = 0;
  bool hashed = false;
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& rule = plan_.rules[i];
    if (rule.kind != FaultKind::kTransientUnavailable &&
        rule.kind != FaultKind::kPermanentDeny) {
      continue;
    }
    if (!rule_active(rule, now)) continue;
    if (!glob_match(rule.path_glob, path)) continue;
    if (rule.kind == FaultKind::kPermanentDeny) {
      FaultMetrics::get().injected.inc();
      FaultMetrics::get().denied.inc();
      if (auto& bus = obs::EventBus::global(); bus.enabled()) {
        // Source is the path identity, not the reader's lane: the set of
        // faulted reads is deterministic, so the event stream is too.
        bus.emit(obs::EventKind::kFaultInjected, now,
                 static_cast<std::uint32_t>(fnv1a64(path)),
                 static_cast<std::uint64_t>(StatusCode::kPermissionDenied), 0);
      }
      return StatusCode::kPermissionDenied;
    }
    if (rule.period == 0 || rule.duration == 0) continue;
    if (!hashed) {
      path_hash = fnv1a64(path);
      hashed = true;
    }
    const std::uint64_t window = now / rule.period;
    const SimDuration offset = now - window * rule.period;
    if (offset < rule.duration &&
        draw01(i, path_hash, window) < rule.rate) {
      FaultMetrics::get().injected.inc();
      if (auto& bus = obs::EventBus::global(); bus.enabled()) {
        bus.emit(obs::EventKind::kFaultInjected, now,
                 static_cast<std::uint32_t>(path_hash),
                 static_cast<std::uint64_t>(StatusCode::kUnavailable), window);
      }
      return StatusCode::kUnavailable;
    }
  }
  return StatusCode::kOk;
}

bool FaultInjector::rapl_wrap_at_step(std::uint64_t step_index,
                                      SimTime now) const {
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& rule = plan_.rules[i];
    if (rule.kind != FaultKind::kRaplWrapForce) continue;
    if (!rule_active(rule, now)) continue;
    if (draw01(i, kRaplSubject, step_index) < rule.rate) {
      FaultMetrics::get().rapl_wraps.inc();
      return true;
    }
  }
  return false;
}

double FaultInjector::perf_retention(SimTime now) const {
  double retention = 1.0;
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& rule = plan_.rules[i];
    if (rule.kind != FaultKind::kPerfDropout) continue;
    if (!rule_active(rule, now)) continue;
    if (rule.period == 0) continue;
    const std::uint64_t window = now / rule.period;
    if (draw01(i, kPerfSubject, window) < rule.rate) {
      retention = std::min(retention, rule.scale);
    }
  }
  if (retention < 1.0) FaultMetrics::get().perf_dropouts.inc();
  return retention;
}

}  // namespace cleaks::faults
