#include "util/event_core.h"

#include <algorithm>
#include <cassert>

namespace cleaks {

TimerWheel::TimerWheel(SimDuration bucket_width, std::size_t num_buckets)
    : width_(bucket_width == 0 ? 1 : bucket_width),
      buckets_(num_buckets == 0 ? 1 : num_buckets) {}

void TimerWheel::schedule(SimTime time, std::uint32_t id) {
  ++size_;
  if (time >= horizon()) {
    overflow_.push_back({time, id});
    overflow_min_ = std::min(overflow_min_, time);
  } else if (time < base_) {
    // Already due (or in the past): park it in the cursor bucket so the
    // next pop_due finds it.
    buckets_[cursor_].push_back({time, id});
  } else {
    buckets_[bucket_of(time)].push_back({time, id});
  }
}

void TimerWheel::cascade_() {
  if (overflow_.empty()) return;
  std::size_t kept = 0;
  overflow_min_ = kNever;
  for (const Entry& entry : overflow_) {
    if (entry.time < horizon()) {
      buckets_[bucket_of(entry.time)].push_back(entry);
    } else {
      overflow_min_ = std::min(overflow_min_, entry.time);
      overflow_[kept++] = entry;
    }
  }
  overflow_.resize(kept);
}

std::vector<TimerWheel::Entry> TimerWheel::pop_due(SimTime now) {
  // The documented contract was always "now must not go backwards"; now it
  // is enforced instead of trusted. A backwards `now` would re-pop windows
  // already drained and desynchronise base_/cursor_ — clamp to the
  // high-water mark so the call degrades to a harmless same-time pop.
  assert(now >= last_now_ && "TimerWheel::pop_due: clock went backwards");
  now = std::max(now, last_now_);
  last_now_ = now;
  if (size_ == 0) {
    // Empty wheel: jump the clock in O(1) instead of turning bucket by
    // bucket (a mostly-idle facility steps for hours without any event).
    if (now > base_) {
      const SimTime ahead = (now - base_) / width_;
      cursor_ = (cursor_ + ahead) % buckets_.size();
      base_ += ahead * width_;
    }
    return {};
  }
  std::vector<Entry> due;
  // A jump past the whole horizon (hours of coasted idle between wakeups)
  // makes every in-bucket window due: drain them all and teleport the
  // clock instead of turning bucket by bucket.
  const SimTime span = width_ * buckets_.size();
  const bool jumped_past_horizon = base_ <= now && now - base_ >= span - 1;
  if (jumped_past_horizon) {
    for (auto& bucket : buckets_) {
      due.insert(due.end(), bucket.begin(), bucket.end());
      size_ -= bucket.size();
      bucket.clear();
    }
    const SimTime ahead = (now - base_) / width_;
    cursor_ = (cursor_ + ahead) % buckets_.size();
    base_ += ahead * width_;  // <= now, so this cannot wrap
  }
  // Whole buckets strictly behind `now` drain en bloc. The condition is
  // the overflow-safe spelling of `base_ + width_ <= now + 1` (which wraps
  // when now == kNever); base_ can sit one past `now` after a drain, hence
  // the first clause.
  while (base_ <= now && now - base_ >= width_ - 1) {
    auto& bucket = buckets_[cursor_];
    due.insert(due.end(), bucket.begin(), bucket.end());
    size_ -= bucket.size();
    bucket.clear();
    cursor_ = (cursor_ + 1) % buckets_.size();
    if (base_ > kNever - width_) {
      // The wheel clock has hit the top of the u64 range; stop advancing
      // (horizon() is already saturated at kNever, and the direct overflow
      // drain below picks up anything that can no longer cascade).
      base_ = kNever;
      cascade_();
      break;
    }
    base_ += width_;
    cascade_();
  }
  // The cursor bucket may hold entries at or before `now` mid-window.
  auto& bucket = buckets_[cursor_];
  for (std::size_t i = 0; i < bucket.size();) {
    if (bucket[i].time <= now) {
      due.push_back(bucket[i]);
      bucket[i] = bucket.back();
      bucket.pop_back();
      --size_;
    } else {
      ++i;
    }
  }
  // Overflow entries can come due without ever cascading in when the
  // horizon saturates near kNever; drain them directly. Gated on the
  // cached minimum so the common case (far-future overflow) stays O(1).
  if (overflow_min_ <= now) {
    std::size_t kept = 0;
    overflow_min_ = kNever;
    for (const Entry& entry : overflow_) {
      if (entry.time <= now) {
        due.push_back(entry);
        --size_;
      } else {
        overflow_min_ = std::min(overflow_min_, entry.time);
        overflow_[kept++] = entry;
      }
    }
    overflow_.resize(kept);
  }
  // After a horizon-sized jump the cascade in the loop above may not have
  // run at all; pull newly-reachable overflow entries (all > now, handled
  // directly above otherwise) into their — now correct — future windows.
  if (jumped_past_horizon) cascade_();
  std::sort(due.begin(), due.end(), [](const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time < b.time : a.id < b.id;
  });
  return due;
}

}  // namespace cleaks
