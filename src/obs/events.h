// Lane-sharded event bus: typed, fixed-size sim events in per-lane rings.
//
// The metrics registry answers "how much happened"; this bus answers "what
// happened, when, to whom" — the streaming substrate for online consumers
// (flight recording, Chrome-trace export; see obs/stream.h).
//
// Determinism contract (same as the metrics registry): every event is a pure
// function of simulated state — its timestamp is the sim clock and its
// `source` is a stable logical identity (server index, fnv of a path),
// never the execution lane. Which *lane ring* an event lands in is
// scheduling luck, so drain() merges the rings into one stream sorted by
// the event's full content (time, source, kind, payload); identical events
// are interchangeable, so the merged order — and its FNV digest — is
// bitwise-identical at every CLEAKS_THREADS count.
//
// Each lane's ring holds a fixed kCapacity (2^16) events and overwrites
// the oldest when full; drops are counted, never silent
// (`events_dropped_total`, Scope::kSim). The drop counter is
// lane-count-independent under the supported drain cadence: a consumer
// that drains at least once per ring capacity keeps it at zero, and
// single-lane producers (the throughput bench) wrap deterministically.
// Multi-lane emission *with* wraps splits drops by scheduling luck — don't
// run that configuration under a digest pin.
//
// Enabled via CLEAKS_EVENTS ("0"/unset = off, any positive number = on) or
// programmatically with set_enabled().
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
/// design: rings are flat arrays and the digest hashes raw fields.
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
  /// Events per lane ring; a power of two, so the cursor wraps with a mask.
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

  /// Record one event into the calling lane's ring. Wait-free with respect
  /// to other lanes (each lane owns its ring); overwrites the oldest entry
  /// and counts the drop when the ring is full. Callers gate on enabled()
  /// themselves so a disabled bus costs one relaxed load.
  void emit(EventKind kind, SimTime time, std::uint32_t source,
            std::uint64_t a = 0, std::uint64_t b = 0);

  /// Watermark merge: collect every lane's ring (each in insertion order up
  /// to its high-water mark), clear the rings, and return one stream in
  /// event_less order. Call while emission is quiescent (after a join).
  std::vector<Event> drain();

  /// Events overwritten because a ring wrapped, since the last drain.
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// FNV-1a over a drained (sorted) batch, chained from `seed` so a
  /// per-step drain accumulates one digest for the whole run.
  [[nodiscard]] static std::uint64_t digest(const std::vector<Event>& events,
                                            std::uint64_t seed = kDigestSeed);

  /// Process-wide bus, configured from CLEAKS_EVENTS on first use.
  static EventBus& global();

 private:
  struct alignas(64) Lane {
    std::vector<Event> ring;  ///< allocated lazily on first emit
    std::size_t size = 0;     ///< filled entries (≤ capacity)
    std::size_t next = 0;     ///< insertion cursor
    std::uint64_t dropped = 0;
  };

  std::atomic<bool> enabled_{false};
  std::array<Lane, ThreadPool::kMaxLanes> lanes_;
};

}  // namespace cleaks::obs
