#include "util/thread_pool.h"

#include <sched.h>

#include <algorithm>

#include "obs/metrics.h"
#include "util/env.h"

namespace cleaks {
namespace {

// Pool telemetry. Job counts are identical at every lane count (the same
// parallel_for calls happen either way: kSim); how many chunks exist
// depends on the lane count, so the chunk count is kRuntime.
obs::Counter& jobs_counter() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "pool_parallel_for_total", "parallel_for invocations (incl. serial)");
  return counter;
}

obs::Counter& lane_chunks_counter() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "pool_lane_chunks_total", "parallel_for chunks executed",
      obs::Scope::kRuntime);
  return counter;
}

}  // namespace

int ThreadPool::default_lanes() {
  // Non-numeric text falls through to the CPU count; numeric values —
  // including 0, negatives and absurd counts — are clamped to
  // [1, kMaxLanes] rather than fed straight to the pool.
  if (const auto parsed = env_long("CLEAKS_THREADS")) {
    return static_cast<int>(
        std::clamp(*parsed, 1L, static_cast<long>(kMaxLanes)));
  }
  // Count the CPUs this thread may run on, not the CPUs online: under
  // `taskset -c 0` a pool sized by hardware_concurrency() would pile every
  // lane onto one CPU.
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
    return std::clamp(CPU_COUNT(&mask), 1, kMaxLanes);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? std::min(static_cast<int>(hw), kMaxLanes) : 1;
}

ThreadPool::ThreadPool(int lanes) {
  if (lanes <= 0) lanes = default_lanes();
  lanes = std::min(lanes, kMaxLanes);
  workers_.reserve(static_cast<std::size_t>(lanes - 1));
  for (int i = 0; i < lanes - 1; ++i) {
    workers_.emplace_back([this, i] {
      tls_lane_ = i + 1;  // lane 0 is the caller
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::parallel_for(std::size_t n, const ChunkBody& body) {
  if (n == 0) return;
  jobs_counter().inc();
  if (workers_.empty() || n == 1) {
    lane_chunks_counter().inc();
    body(0, n);
    return;
  }
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  const std::size_t chunks =
      std::min(n, static_cast<std::size_t>(lanes()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    job_n_ = n;
    chunk_count_ = chunks;
    next_chunk_ = 0;
    unfinished_ = chunks;
  }
  work_cv_.notify_all();
  // The caller is a lane too: claim chunks until none are left.
  for (;;) {
    std::size_t chunk;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (next_chunk_ >= chunk_count_) break;
      chunk = next_chunk_++;
    }
    lane_chunks_counter().inc();
    body(job_n_ * chunk / chunk_count_, job_n_ * (chunk + 1) / chunk_count_);
    std::lock_guard<std::mutex> lock(mu_);
    --unfinished_;
  }
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return unfinished_ == 0; });
  body_ = nullptr;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::size_t chunk;
    const ChunkBody* body;
    std::size_t n;
    std::size_t chunks;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return stop_ || (body_ != nullptr && next_chunk_ < chunk_count_);
      });
      if (stop_) return;
      chunk = next_chunk_++;
      body = body_;
      n = job_n_;
      chunks = chunk_count_;
    }
    lane_chunks_counter().inc();
    (*body)(n * chunk / chunks, n * (chunk + 1) / chunks);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --unfinished_;
    }
    done_cv_.notify_all();
  }
}

}  // namespace cleaks
