#include "faults/injector.h"

#include "obs/events.h"
#include "obs/metrics.h"
#include "util/strings.h"

namespace cleaks::faults {
namespace {

// Fault telemetry. Injection decisions are pure functions of (plan, path,
// sim time) and the set of reads the simulation performs is itself
// deterministic, so the counter merges to the same total at every thread
// count: Scope::kSim.
struct FaultMetrics {
  obs::Counter& injected = obs::Registry::global().counter(
      "faults_injected_total", "reads answered with an injected fault");

  static FaultMetrics& get() {
    static FaultMetrics metrics;
    return metrics;
  }
};

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), base_(plan_.seed ^ 0xfa017ab1ef5ull) {}

StatusCode FaultInjector::read_fault(std::string_view path,
                                     SimTime now) const {
  if (plan_.rules.empty()) return StatusCode::kOk;
  std::uint64_t path_hash = 0;
  bool hashed = false;
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& rule = plan_.rules[i];
    if (rule.period == 0 || !glob_match(rule.path_glob, path)) continue;
    if (!hashed) {
      path_hash = fnv1a64(path);
      hashed = true;
    }
    const std::uint64_t window = now / rule.period;
    const SimDuration offset = now - window * rule.period;
    // fork() never advances the parent, so this chain is a pure keyed hash:
    // the same (rule, path, window) triple yields the same draw forever.
    if (offset < rule.duration &&
        base_.fork(i).fork(path_hash).fork(window).uniform01() < rule.rate) {
      FaultMetrics::get().injected.inc();
      if (auto& bus = obs::EventBus::global(); bus.enabled()) {
        // Source is the path identity, not the reader's lane: the set of
        // faulted reads is deterministic, so the event stream is too.
        bus.emit(obs::EventKind::kFaultInjected, now,
                 static_cast<std::uint32_t>(path_hash),
                 static_cast<std::uint64_t>(StatusCode::kUnavailable), window);
      }
      return StatusCode::kUnavailable;
    }
  }
  return StatusCode::kOk;
}

}  // namespace cleaks::faults
