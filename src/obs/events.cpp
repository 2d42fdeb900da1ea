#include "obs/events.h"

#include <algorithm>
#include <cstdlib>

#include "obs/metrics.h"
#include "util/env.h"

namespace cleaks::obs {
namespace {

// Drop accounting is part of the stream contract ("counted, never
// silent"). Scope::kSim: under the supported drain cadence the count is a
// pure function of the scenario (zero when consumers keep up; the
// single-lane no-consumer bench wraps the same way every run).
struct EventMetrics {
  obs::Counter& dropped = obs::Registry::global().counter(
      "events_dropped_total",
      "events overwritten because a lane ring wrapped before a drain");

  static EventMetrics& get() {
    static EventMetrics metrics;
    return metrics;
  }
};

}  // namespace

std::string_view to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kCtxSwitch:
      return "ctx_switch";
    case EventKind::kPerfEvent:
      return "perf_event";
    case EventKind::kRaplSample:
      return "rapl_sample";
    case EventKind::kThermalSample:
      return "thermal_sample";
    case EventKind::kFaultInjected:
      return "fault_injected";
    case EventKind::kScanFinding:
      return "scan_finding";
    case EventKind::kContainerLifecycle:
      return "container_lifecycle";
    case EventKind::kCgroupMutation:
      return "cgroup_mutation";
  }
  return "?";
}

bool event_less(const Event& x, const Event& y) noexcept {
  if (x.time != y.time) return x.time < y.time;
  if (x.source != y.source) return x.source < y.source;
  if (x.kind != y.kind) return x.kind < y.kind;
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

void EventBus::emit(EventKind kind, SimTime time, std::uint32_t source,
                    std::uint64_t a, std::uint64_t b) {
  auto& lane = lanes_[static_cast<std::size_t>(ThreadPool::current_lane())];
  if (lane.ring.empty()) lane.ring.resize(kCapacity);
  lane.ring[lane.next] = Event{time, kind, source, a, b};
  lane.next = (lane.next + 1) & (kCapacity - 1);
  if (lane.size < kCapacity) {
    ++lane.size;
  } else {
    ++lane.dropped;
    EventMetrics::get().dropped.inc();
  }
}

std::vector<Event> EventBus::drain() {
  std::vector<Event> events;
  for (auto& lane : lanes_) {
    if (lane.size == 0) continue;
    // Oldest-first within the lane: a full ring starts at the cursor.
    const std::size_t start = lane.size < kCapacity ? 0 : lane.next;
    for (std::size_t i = 0; i < lane.size; ++i) {
      events.push_back(lane.ring[(start + i) & (kCapacity - 1)]);
    }
    lane.size = 0;
    lane.next = 0;
    lane.dropped = 0;
  }
  std::sort(events.begin(), events.end(), event_less);
  return events;
}

std::uint64_t EventBus::dropped() const noexcept {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane.dropped;
  return total;
}

std::uint64_t EventBus::digest(const std::vector<Event>& events,
                               std::uint64_t seed) {
  Fnv64 hash{seed};
  for (const auto& event : events) {
    hash.add_u64(event.time);
    hash.add_u64(static_cast<std::uint64_t>(event.kind));
    hash.add_u64(event.source);
    hash.add_u64(event.a);
    hash.add_u64(event.b);
  }
  return hash.hash;
}

EventBus& EventBus::global() {
  static EventBus* instance = [] {
    auto* bus = new EventBus();
    if (env_long_or("CLEAKS_EVENTS", 0) > 0) bus->set_enabled(true);
    return bus;
  }();
  return *instance;
}

}  // namespace cleaks::obs
