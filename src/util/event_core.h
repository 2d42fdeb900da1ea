// Discrete-event core: a bucketed timer wheel keyed by sim-time.
//
// The sparse scheduler (cloud::Datacenter) tracks each server's
// next-interesting-time — workload phase change, fleet-control action,
// fault window edge — on one wheel per facility, and only pops the
// servers whose time has come; everything else coasts analytically
// (hw/idle_coast.h). Shape follows the jiffies/HZ single-time-authority
// idiom: one sim clock, pluggable bucket resolution, per-entity deadlines.
//
// Determinism: pop_due() returns entries sorted by (time, id) regardless
// of insertion order, bucket width or how the wheel wrapped, so a consumer
// that iterates the result draws identical conclusions at every thread
// count. Stale entries are allowed and benign — an entity woken early by a
// mutation simply sees a no-op pop later; consumers must treat a pop as a
// hint ("look at this id"), never as state.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "util/sim_time.h"

namespace cleaks {

class TimerWheel {
 public:
  struct Entry {
    SimTime time = 0;
    std::uint32_t id = 0;
  };

  /// The end of time: the horizon saturates here instead of wrapping.
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  /// `bucket_width` is the wheel resolution (entries within one bucket are
  /// kept unsorted until popped); `num_buckets` fixes the horizon — events
  /// beyond base + width * buckets wait in an overflow list and cascade in
  /// as the wheel turns.
  explicit TimerWheel(SimDuration bucket_width = kMinute,
                      std::size_t num_buckets = 256);

  /// Schedule `id` to pop once the wheel's clock reaches `time`. A time at
  /// or before the last pop_due() clock pops on the very next call.
  void schedule(SimTime time, std::uint32_t id);

  /// Pop every entry with time <= now, sorted by (time, id). The wheel
  /// clock is monotonic: a `now` behind the previous call is clamped to it
  /// (asserted in debug builds), so a confused caller can never re-pop a
  /// window or corrupt the cursor.
  std::vector<Entry> pop_due(SimTime now);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] SimDuration bucket_width() const noexcept { return width_; }

 private:
  /// Move overflow entries that now fit under the horizon into buckets.
  void cascade_();
  [[nodiscard]] std::size_t bucket_of(SimTime time) const noexcept {
    return static_cast<std::size_t>(time / width_) % buckets_.size();
  }
  /// End of the last in-bucket window. Saturates at kNever instead of
  /// wrapping when base_ approaches the top of the u64 range — a wrapped
  /// horizon would classify every future entry as in-bucket and corrupt
  /// the wheel (regression-tested with schedules near kNever).
  [[nodiscard]] SimTime horizon() const noexcept {
    const SimTime span = width_ * buckets_.size();
    return base_ > kNever - span ? kNever : base_ + span;
  }

  SimDuration width_;
  std::vector<std::vector<Entry>> buckets_;
  std::vector<Entry> overflow_;  ///< beyond the current horizon
  SimTime overflow_min_ = kNever;  ///< min time in overflow_ (kNever: none)
  SimTime base_ = 0;             ///< start of the cursor bucket's window
  SimTime last_now_ = 0;         ///< pop_due monotonicity clamp
  std::size_t cursor_ = 0;
  std::size_t size_ = 0;
};

}  // namespace cleaks
