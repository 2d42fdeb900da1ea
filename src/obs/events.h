// Event bus: typed, fixed-size sim events in per-lane buffers.
//
// The metrics registry answers "how much happened"; this bus answers "what
// happened, when, to whom" — the streaming substrate for online consumers
// (flight recording, Chrome-trace export; see obs/stream.h).
//
// Determinism contract (same as the metrics registry): every event is a pure
// function of simulated state — its timestamp is the sim clock and its
// `source` is a stable logical identity (server index, fnv of a path),
// never the execution lane. Which *lane buffer* an event lands in is
// scheduling luck, so drain() merges the buffers into one stream sorted by
// the event's full content (time, source, kind, payload); identical events
// are interchangeable, so the merged order — and its FNV digest — is
// bitwise-identical at every CLEAKS_THREADS count.
//
// Each lane's buffer grows to at most kCapacity (2^16) events between
// drains, and drain() empties it. An emit into a full lane drops the new
// event, as perf_event's default (non-overwrite) ring does; drops are
// counted, never silent (`events_dropped_total`, Scope::kSim). The drop
// counter is lane-count-independent under the supported drain cadence: a
// consumer that drains at least once per kCapacity events per lane keeps
// it at zero, and single-lane producers fill their one lane the same way
// every run. Multi-lane emission that fills a lane splits drops by
// scheduling luck — don't run that configuration under a digest pin.
//
// The bus is off until a consumer that drains it turns it on with
// set_enabled(): SimEngine::enable_event_stream() (which an enabled flight
// recorder triggers for every engine run), or a bench that drains the
// global bus itself. Nothing turns it on from the environment: a bus that
// nobody drains fills every lane, and its drop count then depends on the
// lane count.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/fnv.h"
#include "util/sim_time.h"
#include "util/thread_pool.h"

namespace cleaks::obs {

enum class EventKind : std::uint32_t {
  kCtxSwitch = 0,       ///< a: context switches this tick, b: migrations
  kPerfEvent,           ///< a: instructions retired this tick, b: busy µs
  kRaplSample,          ///< a: host power (mW), b: pkg0 energy counter (µJ)
  kThermalSample,       ///< a: hottest core (milli-°C), b: coolest core
  kFaultInjected,       ///< a: StatusCode injected, b: fault window index
  kScanFinding,         ///< a: LeakClass, b: degraded flag
  kContainerLifecycle,  ///< a: 1=create 0=destroy, b: fnv64(instance id)
  kCgroupMutation,      ///< a: field (see CgroupField), b: new value
};

inline constexpr std::size_t kNumEventKinds = 8;

/// kCgroupMutation payload `a`: which limit moved.
enum class CgroupField : std::uint64_t {
  kCpusetCpus = 1,
  kMemoryLimit = 2,
  kCpuQuota = 3,
  kPerfAccounting = 4,
};

[[nodiscard]] std::string_view to_string(EventKind kind) noexcept;

/// One fixed-size (32-byte) telemetry record. Trivially copyable by
/// design: lane buffers are flat arrays and the digest hashes raw fields.
struct Event {
  SimTime time = 0;          ///< sim clock at emission
  EventKind kind = EventKind::kCtxSwitch;
  std::uint32_t source = 0;  ///< stable logical origin (NOT the lane)
  std::uint64_t a = 0;       ///< kind-specific payload
  std::uint64_t b = 0;

  friend bool operator==(const Event& x, const Event& y) noexcept {
    return x.time == y.time && x.kind == y.kind && x.source == y.source &&
           x.a == y.a && x.b == y.b;
  }
};

/// Total order for the merged stream: (time, source, kind, a, b).
[[nodiscard]] bool event_less(const Event& x, const Event& y) noexcept;

class EventBus {
 public:
  /// Most events one lane holds between drains.
  static constexpr std::size_t kCapacity = 1 << 16;

  EventBus() = default;
  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Record one event into the calling lane's buffer. Lanes never contend
  /// (each lane owns its buffer); when the lane already holds kCapacity
  /// events, drops this one and counts the drop. Callers gate on enabled()
  /// themselves so a disabled bus costs one relaxed load.
  void emit(EventKind kind, SimTime time, std::uint32_t source,
            std::uint64_t a = 0, std::uint64_t b = 0);

  /// Collect every lane's buffer, empty the buffers, and return one
  /// stream in event_less order. Call while emission is quiescent (after a
  /// join).
  std::vector<Event> drain();

  /// Events dropped because their lane was full, since the last drain.
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// FNV-1a over a drained (sorted) batch, chained from `seed` so a
  /// per-step drain accumulates one digest for the whole run.
  [[nodiscard]] static std::uint64_t digest(const std::vector<Event>& events,
                                            std::uint64_t seed = kDigestSeed);

  /// Process-wide bus; off until a draining consumer enables it.
  static EventBus& global();

 private:
  struct alignas(64) Lane {
    std::vector<Event> events;  ///< emitted since the last drain
    std::uint64_t dropped = 0;
  };

  std::atomic<bool> enabled_{false};
  std::array<Lane, ThreadPool::kMaxLanes> lanes_;
};

}  // namespace cleaks::obs
