// Determinism contract of the parallel simulation engine: every thread
// count must produce bitwise-identical results — power traces, scan
// findings, rendered bytes. These tests pin that contract, plus the
// ThreadPool and pseudo-fs read mechanics underneath it.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <latch>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cloud/datacenter.h"
#include "cloud/profiles.h"
#include "cloud/server.h"
#include "defense/power_namespace.h"
#include "defense/trainer.h"
#include "leakage/detector.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace cleaks {
namespace {

// ---------- ThreadPool ----------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (int lanes : {1, 2, 4, 8}) {
    ThreadPool pool(lanes);
    std::vector<int> hits(1000, 0);
    pool.parallel_for(hits.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 1) << "index " << i << " with " << lanes << " lanes";
    }
  }
}

TEST(ThreadPool, HandlesFewerItemsThanLanes) {
  ThreadPool pool(8);
  std::atomic<int> total{0};
  pool.parallel_for(3, [&](std::size_t begin, std::size_t end) {
    total += static_cast<int>(end - begin);
  });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ChunkingIsStaticAndLaneDependentOnly) {
  // The chunk boundaries depend only on (n, lanes): same split every call.
  ThreadPool pool(4);
  auto boundaries = [&] {
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    std::mutex mu;
    pool.parallel_for(103, [&](std::size_t begin, std::size_t end) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace_back(begin, end);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  EXPECT_EQ(boundaries(), boundaries());
}

TEST(ThreadPool, DefaultLanesSurvivesHostileEnv) {
  auto with_env = [](const char* value) {
    if (value == nullptr) {
      unsetenv("CLEAKS_THREADS");
    } else {
      setenv("CLEAKS_THREADS", value, 1);
    }
    const int lanes = ThreadPool::default_lanes();
    unsetenv("CLEAKS_THREADS");
    return lanes;
  };
  EXPECT_EQ(with_env("4"), 4);
  EXPECT_EQ(with_env("0"), 1);       // zero clamps up, never a dead pool
  EXPECT_EQ(with_env("-17"), 1);     // negatives clamp up
  EXPECT_EQ(with_env("999999"), ThreadPool::kMaxLanes);  // absurd clamps down
  // Non-numeric text falls back to the CPU count, still in range.
  EXPECT_GE(with_env("not-a-number"), 1);
  EXPECT_LE(with_env("not-a-number"), ThreadPool::kMaxLanes);
  EXPECT_GE(with_env(nullptr), 1);
  EXPECT_LE(with_env(nullptr), ThreadPool::kMaxLanes);

  // The CPU count is the affinity mask's, not the CPUs online: a thread
  // pinned to one CPU (taskset -c 0) gets one lane.
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  int first_cpu = 0;
  while (first_cpu < CPU_SETSIZE && !CPU_ISSET(first_cpu, &saved)) ++first_cpu;
  ASSERT_LT(first_cpu, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first_cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  const int pinned_lanes = with_env(nullptr);
  ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);  // restore
  EXPECT_EQ(pinned_lanes, 1);
}

TEST(ThreadPool, RunsManySequentialJobs) {
  ThreadPool pool(4);
  std::vector<std::uint64_t> values(257, 0);
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(values.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) ++values[i];
    });
  }
  for (auto value : values) ASSERT_EQ(value, 50u);
}

// ---------- Datacenter: parallel stepping is bitwise deterministic ----------

cloud::DatacenterConfig small_dc(int num_threads) {
  cloud::DatacenterConfig config;
  config.num_racks = 2;
  config.servers_per_rack = 4;
  config.rack_breaker.rated_w = 4000.0;
  config.rack_power_cap_w = 3200.0;
  config.seed = 7;
  config.num_threads = num_threads;
  return config;
}

TEST(ParallelDatacenter, PowerTraceIdenticalAcrossThreadCounts) {
  cloud::Datacenter serial(small_dc(1));
  cloud::Datacenter threaded(small_dc(4));
  for (int tick = 0; tick < 120; ++tick) {
    serial.step(kSecond);
    threaded.step(kSecond);
    ASSERT_EQ(serial.total_power_w(), threaded.total_power_w())
        << "diverged at tick " << tick;  // bitwise, not approximate
    for (int s = 0; s < serial.num_servers(); ++s) {
      ASSERT_EQ(serial.server(s).power_w(), threaded.server(s).power_w())
          << "server " << s << " diverged at tick " << tick;
    }
  }
  EXPECT_EQ(serial.any_breaker_tripped(), threaded.any_breaker_tripped());
}

// ---------- CrossValidator: parallel scan matches serial scan ----------

TEST(ParallelScan, FindingsIdenticalAcrossThreadCounts) {
  auto run_scan = [](int num_threads) {
    cloud::Server server("scan-host", cloud::local_testbed(), 77, 40 * kDay);
    leakage::ScanOptions options;
    options.num_threads = num_threads;
    leakage::CrossValidator validator(server, options);
    return validator.scan();
  };
  const auto serial = run_scan(1);
  const auto threaded = run_scan(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].path, threaded[i].path) << "order diverged at " << i;
    ASSERT_EQ(serial[i].cls, threaded[i].cls) << serial[i].path;
  }
}

TEST(ParallelScan, RepeatScanFindingsIdenticalAcrossThreadCounts) {
  // Repeat scans on one validator (retained probe, lane-local scratch)
  // must stay bitwise-identical across lane counts — including a rescan
  // after the world moved.
  auto run_scans = [](int num_threads) {
    cloud::Server server("warm-scan", cloud::local_testbed(), 77, 40 * kDay);
    leakage::ScanOptions options;
    options.num_threads = num_threads;
    leakage::CrossValidator validator(server, options);
    validator.scan();                       // first scan
    auto unchanged = validator.scan();      // repeat, idle world
    server.step(kSecond);
    auto moved = validator.scan();          // repeat, world moved
    unchanged.insert(unchanged.end(), moved.begin(), moved.end());
    return unchanged;
  };
  const auto serial = run_scans(1);
  for (const int lanes : {2, 4, 8}) {
    const auto threaded = run_scans(lanes);
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial[i].path, threaded[i].path) << "order diverged at " << i;
      ASSERT_EQ(serial[i].cls, threaded[i].cls) << serial[i].path;
      ASSERT_EQ(serial[i].degraded, threaded[i].degraded) << serial[i].path;
    }
  }
}

TEST(ParallelScan, PowerNamespacedScanIdenticalAcrossThreadCounts) {
  // Under the power-based namespace a container read of energy_uj
  // refreshes the namespace's per-container counters, and scan lanes issue
  // those reads concurrently. The refresh must stay race-free (TSan runs
  // this suite) and the findings lane-invariant.
  const defense::PowerModel model = defense::train_default_model(7).value();
  auto run_scan = [&model](int num_threads) {
    cloud::Server server("ns-scan", cloud::local_testbed(), 77, 40 * kDay);
    defense::PowerNamespace power_ns(server.runtime(), model);
    power_ns.enable();
    leakage::ScanOptions options;
    options.num_threads = num_threads;
    leakage::CrossValidator validator(server, options);
    return validator.scan();
  };
  const auto serial = run_scan(1);
  const auto threaded = run_scan(4);
  ASSERT_EQ(serial.size(), threaded.size());
  int rapl_reads = 0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].path, threaded[i].path) << "order diverged at " << i;
    ASSERT_EQ(serial[i].cls, threaded[i].cls) << serial[i].path;
    ASSERT_EQ(serial[i].degraded, threaded[i].degraded) << serial[i].path;
    if (serial[i].path.ends_with("/energy_uj")) {
      ++rapl_reads;
      EXPECT_NE(serial[i].cls, leakage::LeakClass::kLeaking) << serial[i].path;
    }
  }
  EXPECT_GT(rapl_reads, 1);
}

// ---------- telemetry rides the same determinism contract ----------

TEST(ParallelTelemetry, SimMetricsAndEventStreamIdenticalAcrossThreadCounts) {
  // The full instrumented workload — datacenter stepping plus a leak scan —
  // must leave the metrics registry and the event stream in bitwise-identical
  // states at every thread count (Scope::kSim; lane breakdowns are exempt).
  auto run = [](int threads) {
    obs::Registry::global().reset();
    auto& bus = obs::EventBus::global();
    const bool was_enabled = bus.enabled();
    (void)bus.drain();
    bus.set_enabled(true);

    cloud::Datacenter dc(small_dc(threads));
    for (int tick = 0; tick < 30; ++tick) dc.step(kSecond);
    cloud::Server server("scan-host", cloud::local_testbed(), 77, 40 * kDay);
    leakage::ScanOptions options;
    options.num_threads = threads;
    leakage::CrossValidator validator(server, options);
    validator.scan();

    const std::uint64_t sim_digest =
        obs::Registry::global().snapshot().digest(obs::Scope::kSim);
    const std::uint64_t stream_digest = obs::EventBus::digest(bus.drain());
    bus.set_enabled(was_enabled);
    return std::make_pair(sim_digest, stream_digest);
  };
  const auto serial = run(1);
  for (int threads : {2, 4, 8}) {
    EXPECT_EQ(run(threads), serial) << threads << " threads";
  }
}

// ---------- pseudo-fs reads: freshness and concurrency ----------

TEST(RenderCache, HostReadsStableWhileQuiescent) {
  cloud::Server server("cache-host", cloud::local_testbed(), 5, kDay);
  const fs::ViewContext host_ctx{};
  const auto first = server.fs().read("/proc/uptime", host_ctx);
  const auto second = server.fs().read("/proc/uptime", host_ctx);
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(first.value(), second.value());
}

TEST(RenderCache, TickAdvanceInvalidates) {
  cloud::Server server("cache-host", cloud::local_testbed(), 5, kDay);
  const fs::ViewContext host_ctx{};
  const auto before = server.fs().read("/proc/uptime", host_ctx);
  server.step(kSecond);
  const auto after = server.fs().read("/proc/uptime", host_ctx);
  ASSERT_TRUE(before.is_ok());
  ASSERT_TRUE(after.is_ok());
  EXPECT_NE(before.value(), after.value());  // stale bytes would be equal
}

TEST(RenderCache, TaskTableChangeInvalidates) {
  cloud::Server server("cache-host", cloud::local_testbed(), 5, kDay);
  const fs::ViewContext host_ctx{};
  const auto before = server.fs().read("/proc/loadavg", host_ctx);
  ASSERT_TRUE(before.is_ok());
  kernel::Host::SpawnOptions options;
  options.comm = "newcomer";
  options.behavior.duty_cycle = 0.5;
  server.host().spawn_task(options);
  const auto after = server.fs().read("/proc/loadavg", host_ctx);
  ASSERT_TRUE(after.is_ok());
  // loadavg's "last pid" field reflects the spawn immediately; a stale
  // cache would keep serving the old bytes.
  EXPECT_NE(before.value(), after.value());
}

TEST(RenderCache, ConcurrentReadersEachRender) {
  cloud::Server server("cache-host", cloud::local_testbed(), 5, kDay);
  const fs::PseudoFs& pseudo = server.fs();  // settle the host up front
  const fs::ViewContext host_ctx{};
  auto& registry = obs::Registry::global();
  const std::uint64_t hits_before =
      registry.counter("fs_render_cache_hits_total").value();
  const std::uint64_t misses_before =
      registry.counter("fs_render_cache_misses_total").value();

  // All readers race to read one file: the read path takes no lock, so
  // each renders the file itself and each render is counted once.
  constexpr int kReaders = 8;
  std::latch start(kReaders);
  std::array<std::string, kReaders> bytes;
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      start.arrive_and_wait();
      bytes[i] = pseudo.read("/proc/meminfo", host_ctx).value();
    });
  }
  for (auto& reader : readers) reader.join();

  for (const auto& read : bytes) EXPECT_EQ(read, bytes[0]);
  EXPECT_FALSE(bytes[0].empty());
  EXPECT_EQ(registry.counter("fs_render_cache_misses_total").value(),
            misses_before + kReaders);
  EXPECT_EQ(registry.counter("fs_render_cache_hits_total").value(),
            hits_before);
}

TEST(RenderCache, ReadIntoMatchesRead) {
  cloud::Server server("cache-host", cloud::local_testbed(), 5, kDay);
  const fs::ViewContext host_ctx{};
  std::string buffer = "stale residue";  // read_into must replace this
  for (const auto& path : server.fs().list_paths()) {
    const auto full = server.fs().read(path, host_ctx);
    const auto code = server.fs().read_into(path, host_ctx, buffer);
    ASSERT_EQ(full.code(), code) << path;
    if (full.is_ok()) {
      ASSERT_EQ(full.value(), buffer) << path;
    }
  }
}

}  // namespace
}  // namespace cleaks
