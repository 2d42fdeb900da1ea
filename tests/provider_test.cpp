// Provider control-plane determinism (PR 10).
//
// The fleet-scale rewrite (PlacementIndex, slab instance table, deferred
// billing rollups) must be *bitwise* invisible: every golden below was
// recorded against the pre-refactor provider (O(R) occupancy rebuild,
// shared_ptr vector, every-instance-every-step metering) and is asserted
// here against the new control plane, at 1/2/4/8 datacenter lanes.
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/datacenter.h"
#include "cloud/provider.h"
#include "kernel/task.h"
#include "obs/events.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace cleaks::cloud {
namespace {

DatacenterConfig placement_config(int num_threads) {
  DatacenterConfig config;
  config.num_racks = 2;
  config.servers_per_rack = 8;
  config.benign_load = false;
  config.seed = 42;
  config.num_threads = num_threads;
  return config;
}

// Recorded pre-refactor placement sequences: 16 servers, provider seed
// 2024, max 4 per server; 40 launches, terminate every third, 24
// launches, terminate the 10 oldest survivors, 20 launches.
constexpr int kGoldenRandom[] = {
    14, 5,  1,  11, 7,  5,  8,  12, 5,  4,  0,  3,  6,  5,  1,  15, 6,
    10, 10, 12, 12, 9,  1,  10, 10, 11, 15, 0,  6,  9,  11, 11, 4,  12,
    2,  8,  7,  0,  13, 3,  12, 1,  6,  3,  6,  15, 14, 14, 3,  3,  9,
    14, 8,  2,  7,  11, 14, 10, 9,  4,  2,  0,  7,  10, 2,  13, 8,  7,
    15, 13, 3,  11, 9,  1,  15, 7,  13, 0,  0,  4,  12, 4,  5,  1};
constexpr int kGoldenBinPack[] = {
    0,  0,  0,  0,  1,  1,  1,  1,  2,  2,  2,  2,  3,  3,  3,  3,  4,
    4,  4,  4,  5,  5,  5,  5,  6,  6,  6,  6,  7,  7,  7,  7,  8,  8,
    8,  8,  9,  9,  9,  9,  1,  2,  4,  5,  7,  8,  0,  0,  3,  3,  6,
    6,  9,  9,  10, 10, 10, 10, 11, 11, 11, 11, 12, 12, 0,  0,  3,  3,
    12, 12, 1,  1,  1,  2,  2,  2,  13, 13, 13, 13, 14, 14, 14, 14};
constexpr int kGoldenSpread[] = {
    0,  1,  2, 3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14, 15, 0,
    1,  2,  3, 4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14, 15, 0,  1,
    2,  3,  4, 5,  6,  7,  8,  9,  11, 12, 14, 15, 0,  1,  2,  3,  4,
    5,  6,  7, 8,  9,  10, 11, 12, 13, 14, 15, 0,  1,  2,  4,  5,  7,
    8,  10, 11, 13, 14, 1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11};

/// Replays the recorded mixed launch/terminate trace, returning the
/// placement sequence.
std::vector<int> run_mixed_trace(CloudProvider& provider) {
  container::ContainerConfig cc;
  cc.num_cpus = 1;
  std::vector<int> servers;
  std::vector<std::string> ids;
  std::vector<bool> live;
  auto launch = [&](int i) {
    auto inst = provider.launch("t" + std::to_string(i % 3), cc);
    servers.push_back(provider.server_of(inst->instance_id));
    ids.push_back(inst->instance_id);
    live.push_back(true);
  };
  for (int i = 0; i < 40; ++i) launch(i);
  for (int i = 0; i < 40; i += 3) {
    provider.terminate(ids[static_cast<std::size_t>(i)]);
    live[static_cast<std::size_t>(i)] = false;
  }
  for (int i = 40; i < 64; ++i) launch(i);
  int removed = 0;
  for (std::size_t i = 0; i < ids.size() && removed < 10; ++i) {
    if (!live[i]) continue;
    provider.terminate(ids[i]);
    live[i] = false;
    ++removed;
  }
  for (int i = 64; i < 84; ++i) launch(i);
  return servers;
}

void expect_golden(PlacementPolicy policy, const int* golden, std::size_t n) {
  for (const int lanes : {1, 2, 4, 8}) {
    Datacenter dc(placement_config(lanes));
    CloudProvider provider(dc, 2024, BillingRates{}, policy,
                           /*max_instances_per_server=*/4);
    const auto servers = run_mixed_trace(provider);
    ASSERT_EQ(servers.size(), n) << "lanes=" << lanes;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(servers[i], golden[i])
          << to_string(policy) << " launch " << i << " lanes=" << lanes;
    }
  }
}

TEST(ProviderGolden, RandomMatchesPreRefactorRecording) {
  expect_golden(PlacementPolicy::kRandom, kGoldenRandom,
                std::size(kGoldenRandom));
}

TEST(ProviderGolden, BinPackMatchesPreRefactorRecording) {
  expect_golden(PlacementPolicy::kBinPack, kGoldenBinPack,
                std::size(kGoldenBinPack));
}

TEST(ProviderGolden, SpreadMatchesPreRefactorRecording) {
  expect_golden(PlacementPolicy::kSpread, kGoldenSpread,
                std::size(kGoldenSpread));
}

// ---------- old -> new index cross-check ----------

/// The pre-refactor picker, verbatim: full occupancy scan per launch,
/// with its own RNG consuming draws with identical bounds.
class ReferencePicker {
 public:
  ReferencePicker(int num_servers, int max_per_server, std::uint64_t seed,
                  PlacementPolicy policy)
      : max_(max_per_server),
        policy_(policy),
        rng_(seed),
        counts_(static_cast<std::size_t>(num_servers), 0) {}

  int pick() {
    const int total = static_cast<int>(counts_.size());
    switch (policy_) {
      case PlacementPolicy::kRandom: {
        std::vector<int> candidates;
        for (int server = 0; server < total; ++server) {
          if (counts_[static_cast<std::size_t>(server)] < max_) {
            candidates.push_back(server);
          }
        }
        if (candidates.empty()) {
          return static_cast<int>(rng_.uniform_u64(0, total - 1));
        }
        return candidates[rng_.uniform_u64(0, candidates.size() - 1)];
      }
      case PlacementPolicy::kBinPack: {
        int best = -1;
        for (int server = 0; server < total; ++server) {
          const int count = counts_[static_cast<std::size_t>(server)];
          if (count >= max_) continue;
          if (best < 0 || count > counts_[static_cast<std::size_t>(best)]) {
            best = server;
          }
        }
        return best < 0 ? 0 : best;
      }
      case PlacementPolicy::kSpread: {
        int best = 0;
        for (int server = 1; server < total; ++server) {
          if (counts_[static_cast<std::size_t>(server)] <
              counts_[static_cast<std::size_t>(best)]) {
            best = server;
          }
        }
        return best;
      }
    }
    return 0;
  }

  void add(int server) { ++counts_[static_cast<std::size_t>(server)]; }
  void remove(int server) { --counts_[static_cast<std::size_t>(server)]; }

 private:
  int max_;
  PlacementPolicy policy_;
  Rng rng_;
  std::vector<int> counts_;
};

TEST(ProviderIndex, MatchesLinearReferenceUnderHeavyChurn) {
  for (const PlacementPolicy policy :
       {PlacementPolicy::kRandom, PlacementPolicy::kBinPack,
        PlacementPolicy::kSpread}) {
    DatacenterConfig config;
    config.num_racks = 4;
    config.servers_per_rack = 8;
    config.benign_load = false;
    Datacenter dc(config);
    constexpr std::uint64_t kSeed = 9091;
    CloudProvider provider(dc, kSeed, BillingRates{}, policy,
                           /*max_instances_per_server=*/3);
    ReferencePicker reference(dc.num_servers(), 3, kSeed, policy);
    container::ContainerConfig cc;
    cc.num_cpus = 1;

    Rng trace(777);  // drives the op mix, not placement
    std::vector<std::string> ids;
    std::vector<int> placed;
    for (int op = 0; op < 600; ++op) {
      const bool full =
          static_cast<int>(ids.size()) >= dc.num_servers() * 3;
      if (!ids.empty() && (full || trace.uniform_u64(0, 9) < 4)) {
        const auto victim = trace.uniform_u64(0, ids.size() - 1);
        reference.remove(placed[victim]);
        ASSERT_TRUE(provider.terminate(ids[victim]));
        ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(victim));
        placed.erase(placed.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        const int expected = reference.pick();
        reference.add(expected);
        auto inst = provider.launch("churn", cc);
        const int got = provider.server_of(inst->instance_id);
        ASSERT_EQ(got, expected)
            << to_string(policy) << " op " << op << ": index diverged from "
            << "the pre-refactor linear scan";
        ids.push_back(inst->instance_id);
        placed.push_back(got);
      }
    }
  }
}

// ---------- billing goldens ----------

// Recorded pre-refactor: 4 servers (1 rack, seed 42, no benign load),
// provider seed 7, kSpread, 2-vCPU containers; idle x2 + busy (2 burn
// tasks), 30 x 1 s steps, third idle launch, 30 steps, terminate first
// idle, 30 steps. The new meter defers the idle tenant (its servers'
// usage markers never move) and must settle to the same bits on query.
TEST(ProviderBilling, HexfloatGoldensSurviveEpochRollup) {
  for (const int lanes : {1, 2, 4, 8}) {
    DatacenterConfig config;
    config.num_racks = 1;
    config.servers_per_rack = 4;
    config.benign_load = false;
    config.seed = 42;
    config.num_threads = lanes;
    Datacenter dc(config);
    CloudProvider provider(dc, 7, BillingRates{}, PlacementPolicy::kSpread,
                           /*max_instances_per_server=*/8);
    container::ContainerConfig cc;
    cc.num_cpus = 2;

    auto idle0 = provider.launch("idle", cc);
    provider.launch("idle", cc);
    auto busy = provider.launch("busy", cc);
    ASSERT_EQ(provider.server_of(busy->instance_id), 2);
    kernel::TaskBehavior burn;
    burn.duty_cycle = 1.0;
    for (int i = 0; i < 2; ++i) busy->handle->run("burn", burn);

    for (int i = 0; i < 30; ++i) provider.step(kSecond);
    provider.launch("idle", cc);
    for (int i = 0; i < 30; ++i) provider.step(kSecond);
    provider.terminate(idle0->instance_id);
    for (int i = 0; i < 30; ++i) provider.step(kSecond);

    EXPECT_EQ(provider.billing().total_cost("idle"), 0x1.b866e43aa79aap-16)
        << "lanes=" << lanes;
    EXPECT_EQ(provider.billing().cpu_hours("idle"), 0x0p+0)
        << "lanes=" << lanes;
    EXPECT_EQ(provider.billing().total_cost("busy"), 0x1.779ef3cc7397ep-11)
        << "lanes=" << lanes;
    EXPECT_EQ(provider.billing().cpu_hours("busy"), 0x1.99b5dcf6cee3fp-5)
        << "lanes=" << lanes;
  }
}

TEST(ProviderBilling, StepLengthChangeSettlesToTheSameBits) {
  // An idle tenant's deferred run holds steps of one length, so alternating
  // 1 s and 0.5 s steps settles it before every step; a billing() query
  // after every step settles it too. Both must land on the bits of one
  // query at the end, which are the per-step fold's.
  auto run = [](bool query_every_step) {
    DatacenterConfig config;
    config.num_racks = 1;
    config.servers_per_rack = 4;
    config.benign_load = false;
    config.seed = 42;
    Datacenter dc(config);
    CloudProvider provider(dc, 7, BillingRates{}, PlacementPolicy::kSpread,
                           /*max_instances_per_server=*/8);
    container::ContainerConfig cc;
    cc.num_cpus = 2;
    provider.launch("idle", cc);
    provider.launch("idle", cc);
    for (int i = 0; i < 40; ++i) {
      provider.step(i % 2 == 0 ? kSecond : kSecond / 2);
      if (query_every_step) (void)provider.billing().total_cost("idle");
    }
    return provider.billing().total_cost("idle");
  };
  BillingMeter per_step;
  for (int i = 0; i < 40; ++i) {
    for (int instance = 0; instance < 2; ++instance) {
      per_step.charge("idle", 2, 0.0, i % 2 == 0 ? kSecond : kSecond / 2);
    }
  }
  const double once = run(false);
  EXPECT_EQ(once, per_step.total_cost("idle"));
  EXPECT_EQ(run(true), once);
}

// ---------- batch API ----------

TEST(ProviderBatch, BatchEqualsSequentialLaunches) {
  auto make_dc = [] {
    DatacenterConfig config;
    config.num_racks = 2;
    config.servers_per_rack = 8;
    config.benign_load = false;
    return config;
  };
  container::ContainerConfig cc;
  cc.num_cpus = 1;

  Datacenter dc_a(make_dc());
  CloudProvider loop(dc_a, 31, BillingRates{}, PlacementPolicy::kRandom, 4);
  std::vector<int> loop_servers;
  for (int i = 0; i < 24; ++i) {
    loop_servers.push_back(
        loop.server_of(loop.launch("t", cc)->instance_id));
  }

  Datacenter dc_b(make_dc());
  CloudProvider batch(dc_b, 31, BillingRates{}, PlacementPolicy::kRandom, 4);
  std::vector<std::uint64_t> uids;
  batch.launch_batch("t", 24, cc, &uids);
  ASSERT_EQ(uids.size(), 24u);
  for (std::size_t i = 0; i < uids.size(); ++i) {
    const auto* inst = batch.find_uid(uids[i]);
    ASSERT_NE(inst, nullptr);
    EXPECT_EQ(inst->server_index, loop_servers[i]) << "launch " << i;
  }

  EXPECT_EQ(batch.terminate_batch(uids), 24);
  EXPECT_EQ(batch.instance_count(), 0u);
  EXPECT_EQ(batch.terminate_batch(uids), 0);  // already gone
}

TEST(ProviderBatch, TerminateOldestFollowsLaunchOrder) {
  DatacenterConfig config;
  config.num_racks = 1;
  config.servers_per_rack = 8;
  config.benign_load = false;
  Datacenter dc(config);
  CloudProvider provider(dc, 5);
  container::ContainerConfig cc;
  cc.num_cpus = 1;
  std::vector<std::uint64_t> uids;
  provider.launch_batch("t", 6, cc, &uids);
  EXPECT_EQ(provider.live_instances("t"), 6);
  EXPECT_EQ(provider.terminate_oldest("t", 4), 4);
  EXPECT_EQ(provider.live_instances("t"), 2);
  // Oldest-first: the two survivors are the two newest uids.
  EXPECT_EQ(provider.find_uid(uids[0]), nullptr);
  EXPECT_EQ(provider.find_uid(uids[3]), nullptr);
  ASSERT_NE(provider.find_uid(uids[4]), nullptr);
  ASSERT_NE(provider.find_uid(uids[5]), nullptr);
  EXPECT_EQ(provider.terminate_oldest("t", 99), 2);
  EXPECT_EQ(provider.terminate_oldest("missing", 1), 0);
}

// ---------- churn workload ----------

TEST(ProviderChurn, StormsAreLaneCountInvariantAndEmitLifecycle) {
  // Six create/destroy storms through the batch API, one every 5 s: storm
  // k launches a jittered batch of 6-10 for tenant churn-(k % 2), then
  // terminates half of that tenant's live instances, oldest first. The
  // event bus is drained after every step, so nothing wraps.
  auto run = [](int lanes) {
    DatacenterConfig config;
    config.num_racks = 1;
    config.servers_per_rack = 8;
    config.benign_load = false;
    config.num_threads = lanes;
    Datacenter dc(config);
    CloudProvider provider(dc, 11);
    auto& bus = obs::EventBus::global();
    (void)bus.drain();
    bus.set_enabled(true);
    Rng jitter(99);
    std::uint64_t digest = kDigestSeed;
    int lifecycle_ops = 0;
    int lifecycle_events = 0;
    for (int step = 1; step <= 40; ++step) {
      provider.step(kSecond);
      if (step % 5 == 0 && step <= 30) {
        const std::string tenant = "churn-" + std::to_string(step / 5 % 2);
        const int launches = 6 + static_cast<int>(jitter.uniform_u64(0, 4));
        provider.launch_batch(tenant, launches);
        lifecycle_ops += launches + provider.terminate_oldest(
                                        tenant,
                                        provider.live_instances(tenant) / 2);
      }
      const std::vector<obs::Event> batch = bus.drain();
      for (const obs::Event& event : batch) {
        if (event.kind == obs::EventKind::kContainerLifecycle) {
          ++lifecycle_events;
        }
      }
      digest = obs::EventBus::digest(batch, digest);
    }
    bus.set_enabled(false);
    EXPECT_EQ(lifecycle_events, lifecycle_ops) << "lanes=" << lanes;
    return std::tuple{digest, lifecycle_events, provider.instance_count()};
  };
  const auto reference = run(1);
  EXPECT_GT(std::get<1>(reference), 0);   // lifecycle events flowed
  EXPECT_GT(std::get<2>(reference), 0u);  // storms left live instances
  for (const int lanes : {2, 4, 8}) {
    EXPECT_EQ(run(lanes), reference) << "lanes=" << lanes;
  }
}

}  // namespace
}  // namespace cleaks::cloud
