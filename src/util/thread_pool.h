// Deterministic fork-join worker pool for the simulation's embarrassingly
// parallel loops (stepping independent servers, walking pseudo-fs paths).
//
// parallel_for uses *static chunking*: [0, n) is split into a fixed set of
// contiguous ranges computed from n and the lane count alone, never from
// runtime timing. Bodies must only write state owned by their own indices
// (all cross-server/cross-path aggregation stays on the caller thread);
// under that contract the results are bitwise-identical to a serial run,
// for every thread count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cleaks {

class ThreadPool {
 public:
  /// Upper bound on execution lanes. Everything lane-indexed (the metrics
  /// registry's shards, the event bus's per-lane rings) is sized by this, so
  /// requested lane counts are clamped to it.
  static constexpr int kMaxLanes = 64;

  /// `lanes` counts execution lanes *including* the calling thread, so the
  /// pool spawns `lanes - 1` workers. 1 = fully serial (no threads); <= 0 =
  /// default_lanes(); > kMaxLanes is clamped.
  explicit ThreadPool(int lanes = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Execution lanes (workers + caller).
  [[nodiscard]] int lanes() const noexcept {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// CLEAKS_THREADS environment override, else the number of CPUs in the
  /// calling thread's affinity mask. Env values are sanitized: non-numeric
  /// text is ignored, and numeric values are clamped to [1, kMaxLanes] (0,
  /// negatives and absurd counts never reach the pool).
  static int default_lanes();

  /// Lane id of the calling thread: 0 for any thread outside a pool body
  /// (including the parallel_for caller), 1..lanes-1 for pool workers.
  /// Lane-sharded telemetry keys on this.
  [[nodiscard]] static int current_lane() noexcept { return tls_lane_; }

  /// Range body: handles indices [begin, end). One invocation runs on one
  /// thread, so locals inside the body (e.g. a render buffer) are reused
  /// across the whole range — the "one buffer per worker" pattern.
  using ChunkBody = std::function<void(std::size_t begin, std::size_t end)>;

  /// Run `body` over [0, n) split into min(lanes(), n) static chunks. The
  /// caller participates and blocks until every chunk is done. Not
  /// reentrant from inside a body.
  void parallel_for(std::size_t n, const ChunkBody& body);

 private:
  void worker_loop();

  static inline thread_local int tls_lane_ = 0;

  std::vector<std::thread> workers_;

  std::mutex submit_mu_;  ///< serializes concurrent parallel_for callers

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const ChunkBody* body_ = nullptr;  ///< non-null while a job is posted
  std::size_t job_n_ = 0;
  std::size_t chunk_count_ = 0;
  std::size_t next_chunk_ = 0;
  std::size_t unfinished_ = 0;
  bool stop_ = false;
};

}  // namespace cleaks
