// Streaming consumers of the event bus (obs/events.h):
//
//  * WindowAggregator — tumbling sim-time windows over the merged stream,
//    producing per-source event-rate/kind-histogram summaries: the input
//    shape an online behavior IDS (n-gram trainer) consumes. Windows are
//    half-open [k·W, (k+1)·W): an event exactly on a tumbling edge belongs
//    to the *next* window, and only that one.
//  * FlightRecorder — keeps the last N sim-seconds of merged events and
//    dumps them as a `cleaks-events-v1` JSON document on demand, on a
//    failed bench_check(), or from a std::terminate handler when enabled
//    via CLEAKS_FLIGHT_RECORDER (value = window in sim-seconds; "1" keeps
//    the 30 s default).
//  * to_chrome_trace — chrome://tracing-loadable JSON from events:
//    per-server counter tracks, instants for faults and scan findings,
//    container lifetimes as async slices.
//
// Everything here runs on the drain thread (the engine's measurement
// phase), so no locking: the bus's per-lane rings are the only concurrent
// structure.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/events.h"
#include "util/sim_time.h"

namespace cleaks::obs {

inline constexpr std::string_view kEventsSchema = "cleaks-events-v1";

/// One closed tumbling window over the merged stream.
struct WindowSummary {
  SimTime start = 0;  ///< inclusive
  SimTime end = 0;    ///< exclusive
  std::uint64_t total = 0;
  std::array<std::uint64_t, kNumEventKinds> by_kind{};
  /// Per-source event counts, sorted by source id (the per-container /
  /// per-server rate breakdown).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> by_source;

  [[nodiscard]] double rate_per_s() const;
};

class WindowAggregator {
 public:
  explicit WindowAggregator(SimDuration width);

  /// Consume one drained (merged, time-sorted) batch. Batches must arrive
  /// in stream order across calls; windows older than the current one are
  /// closed as later events arrive. Empty windows are not materialized.
  void feed(const std::vector<Event>& merged);
  /// Close the currently open window (call once, after the last feed).
  void flush();

  [[nodiscard]] const std::vector<WindowSummary>& windows() const noexcept {
    return windows_;
  }
  [[nodiscard]] SimDuration width() const noexcept { return width_; }
  /// FNV over every closed window — lane-count-independent because the
  /// merged stream is.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  void close_current();

  SimDuration width_;
  bool open_ = false;
  std::uint64_t current_index_ = 0;  ///< window ordinal = start / width
  WindowSummary current_;
  std::vector<WindowSummary> windows_;
};

class FlightRecorder {
 public:
  static constexpr SimDuration kDefaultWindow = 30 * kSecond;

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// How much trailing sim-time of events to retain.
  void set_window(SimDuration keep) noexcept { keep_ = keep; }
  [[nodiscard]] SimDuration window() const noexcept { return keep_; }

  /// Consume one drained batch; evicts events older than window() behind
  /// the latest timestamp seen.
  void feed(const std::vector<Event>& merged);

  [[nodiscard]] const std::deque<Event>& buffered() const noexcept {
    return events_;
  }

  /// The retained events as a cleaks-events-v1 JSON document.
  [[nodiscard]] std::string dump_json() const;
  /// Write dump_json() to bench_dir()/FLIGHT_<tag>.json; returns the path
  /// ("" on I/O failure).
  std::string dump_to_file(std::string_view tag) const;

  /// Process-wide recorder, configured from CLEAKS_FLIGHT_RECORDER on
  /// first use; when the env enables it, a std::terminate hook is
  /// installed that dumps FLIGHT_fatal.json before dying.
  static FlightRecorder& global();

 private:
  bool enabled_ = false;
  SimDuration keep_ = kDefaultWindow;
  SimTime latest_ = 0;
  std::deque<Event> events_;
};

/// Bench assertion with a black box: on failure prints `what` to stderr
/// and, if the global flight recorder is enabled, dumps its buffer to
/// FLIGHT_<tag>.json. Returns `ok` so benches keep their own exit-code
/// logic.
bool bench_check(bool ok, std::string_view tag, std::string_view what);

/// chrome://tracing / Perfetto-loadable JSON. Each event source becomes a
/// process track ("server-<id>"): kCtxSwitch/kPerfEvent/kRaplSample/
/// kThermalSample render as counter samples, kFaultInjected/kScanFinding/
/// kCgroupMutation as instants, and kContainerLifecycle pairs as async
/// slices spanning the container's life. Sim time maps 1 ns -> 1/1000
/// trace µs.
std::string to_chrome_trace(const std::vector<Event>& events);

}  // namespace cleaks::obs
