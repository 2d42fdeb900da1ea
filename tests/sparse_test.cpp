// Sparse stepping: the analytic idle-coast integrators and the
// dense/sparse facility equivalence.
//
// The load-bearing property is bitwise equality: coasting an idle interval
// in one closed-form jump must land on exactly the bits the equivalent
// sequence of per-tick idle materialisations produces, for any split of
// the interval, across RAPL wrap boundaries, and through episode-ending
// mutations. The facility-level tests then pin that a sparse Datacenter
// (servers parked until a Server member settles them, intervals deferred
// in O(1)) is indistinguishable from the dense reference in every rendered
// pseudo-file and every Scope::kSim counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "cloud/datacenter.h"
#include "cloud/profiles.h"
#include "cloud/server.h"
#include "fs/pseudo_fs.h"
#include "kernel/host.h"
#include "obs/metrics.h"
#include "util/fnv.h"
#include "workload/profiles.h"

namespace cleaks {
namespace {

// ---------- host-level coast equivalence ----------

std::unique_ptr<kernel::Host> make_idle_host(std::uint64_t seed = 11) {
  auto host = std::make_unique<kernel::Host>("coast", cloud::cc1().hardware,
                                             seed, /*boot_time=*/0);
  host->set_tick_duration(kSecond);
  return host;
}

// The per-tick reference every deferred path must match bit for bit: one
// materialisation per host tick, the "equivalent sequence of idle ticks".
void coast_per_tick(kernel::Host& host, SimDuration duration) {
  while (duration > 0) {
    const SimDuration tick = std::min(duration, host.tick_duration());
    host.defer_idle(tick);
    host.coast_sync();
    duration -= tick;
  }
}

// Full-surface equality: every pseudo-file byte plus the raw hardware
// state the renderers don't cover exhaustively (wrap counts, lifetime
// energy, per-core temperatures and deep-idle residency).
void expect_hosts_identical(kernel::Host& a, kernel::Host& b) {
  ASSERT_EQ(a.now(), b.now());
  fs::PseudoFs fs_a(a);
  fs::PseudoFs fs_b(b);
  const fs::ViewContext ctx;
  for (const std::string& path : fs_a.list_paths()) {
    const auto ra = fs_a.read(path, ctx);
    const auto rb = fs_b.read(path, ctx);
    ASSERT_EQ(ra.is_ok(), rb.is_ok()) << path;
    if (ra.is_ok()) {
      EXPECT_EQ(ra.value(), rb.value()) << path;
    }
  }
  EXPECT_EQ(a.lifetime_energy_j(), b.lifetime_energy_j());
  EXPECT_EQ(a.last_tick_power_w(), b.last_tick_power_w());
  ASSERT_EQ(a.rapl().size(), b.rapl().size());
  for (std::size_t i = 0; i < a.rapl().size(); ++i) {
    const auto& pa = a.rapl()[i];
    const auto& pb = b.rapl()[i];
    EXPECT_EQ(pa.package().state().wrap_count,
              pb.package().state().wrap_count);
    EXPECT_EQ(pa.package().state().counter_uj,
              pb.package().state().counter_uj);
    EXPECT_EQ(pa.core().state().counter_uj, pb.core().state().counter_uj);
    EXPECT_EQ(pa.dram().state().counter_uj, pb.dram().state().counter_uj);
  }
  for (int core = 0; core < a.spec().num_cores; ++core) {
    EXPECT_EQ(a.thermal().temp_c(core), b.thermal().temp_c(core));
  }
  const int deepest = a.cpuidle().num_states() - 1;
  for (int core = 0; core < a.spec().num_cores; ++core) {
    EXPECT_EQ(a.cpuidle().usage(core, deepest),
              b.cpuidle().usage(core, deepest));
    EXPECT_EQ(a.cpuidle().time_us(core, deepest),
              b.cpuidle().time_us(core, deepest));
  }
  EXPECT_EQ(a.state().load1, b.state().load1);
  EXPECT_EQ(a.state().total_ctxt_switches, b.state().total_ctxt_switches);
}

TEST(CoastEquivalence, OneShotCoastMatchesIdleTickSequenceAcrossRaplWrap) {
  auto dense = make_idle_host();
  auto sparse = make_idle_host();
  // 4 h at ~74 W per package wraps the 262 kJ RAPL counter several times;
  // the closed form must carry residual microjoules and wrap counts
  // exactly as 14400 one-second materialisations do.
  const SimDuration interval = 4 * kHour;
  coast_per_tick(*dense, interval);
  sparse->defer_idle(interval);
  sparse->coast_sync();
  EXPECT_GE(sparse->rapl()[0].package().state().wrap_count, 3u);
  expect_hosts_identical(*dense, *sparse);
}

TEST(CoastEquivalence, ArbitrarySplitsOfTheIntervalAreInvariant) {
  auto one_shot = make_idle_host();
  auto ragged = make_idle_host();
  auto ticked = make_idle_host();
  const SimDuration total = 2 * kHour;
  one_shot->defer_idle(total);
  one_shot->coast_sync();
  // Ragged chunks, including sub-tick and non-multiple-of-a-second cuts.
  const SimDuration chunks[] = {1, 3 * kSecond + 7, 59 * kMinute,
                                kSecond / 2, 0, total};
  SimDuration spent = 0;
  for (const SimDuration chunk : chunks) {
    const SimDuration take = std::min(chunk, total - spent);
    ragged->defer_idle(take);
    ragged->coast_sync();
    spent += take;
  }
  ragged->defer_idle(total - spent);
  ragged->coast_sync();
  coast_per_tick(*ticked, total);
  expect_hosts_identical(*one_shot, *ragged);
  expect_hosts_identical(*one_shot, *ticked);
}

TEST(CoastEquivalence, MutationMidIntervalSplitsTheEpisodeIdentically) {
  // A forced RAPL wrap (the fault injector's step-boundary glitch) plus a
  // spawn/kill pair end the episode on both hosts at the same instant; the
  // re-anchored second half must still land on identical bits.
  auto dense = make_idle_host();
  auto sparse = make_idle_host();
  auto mutate = [](kernel::Host& host) {
    for (auto& pkg : host.mutable_rapl()) pkg.package().force_wrap();
    kernel::Host::SpawnOptions options;
    options.comm = "blip";
    options.behavior.duty_cycle = 0.5;
    const auto pid = host.spawn_task(options)->host_pid;
    host.kill_task(pid);
  };
  coast_per_tick(*dense, 30 * kMinute);
  EXPECT_TRUE(dense->coast_active());
  mutate(*dense);
  EXPECT_FALSE(dense->coast_active());
  coast_per_tick(*dense, 30 * kMinute);

  sparse->defer_idle(30 * kMinute);
  sparse->coast_sync();
  mutate(*sparse);
  sparse->defer_idle(30 * kMinute);
  sparse->coast_sync();
  expect_hosts_identical(*dense, *sparse);
}

TEST(CoastEligibility, EndsWithCapAndResumesWhenLifted) {
  auto host = make_idle_host();
  EXPECT_TRUE(host->coast_eligible());
  host->defer_idle(kMinute);
  EXPECT_TRUE(host->coast_active());
  host->coast_sync();
  host->set_power_cap_w(120.0);
  EXPECT_FALSE(host->coast_active());
  EXPECT_FALSE(host->coast_eligible());
  host->set_power_cap_w(0.0);
  EXPECT_TRUE(host->coast_eligible());
  // Re-asserting the lifted cap is a pure no-op: it must not end episodes.
  host->defer_idle(kMinute);
  host->set_power_cap_w(0.0);
  EXPECT_TRUE(host->coast_active());
}

TEST(CoastEligibility, IdleStandaloneServerCoastsAfterStep) {
  // Every idle server coasts, not only a facility's: a bare Server with no
  // container and no benign load defers its step, and a tenant ends that.
  cloud::Server server("standalone", cloud::cc1(), 11, 40 * kDay);
  EXPECT_TRUE(server.idle_eligible());
  EXPECT_TRUE(server.step(kSecond));
  EXPECT_TRUE(server.coast_active());
  auto tenant = server.runtime().create({});
  EXPECT_FALSE(server.step(kSecond));
  EXPECT_FALSE(server.coast_active());
}

// ---------- facility-level dense vs sparse ----------

struct ServerSnapshot {
  std::string stat;
  std::string uptime;
  std::string loadavg;
  std::string interrupts;
  double power_w = 0.0;
  double lifetime_j = 0.0;
  std::uint64_t pkg0_uj = 0;
  std::uint64_t wraps = 0;

  bool operator==(const ServerSnapshot&) const = default;
};

ServerSnapshot snapshot(cloud::Server& server) {
  const fs::ViewContext ctx;
  ServerSnapshot snap;
  snap.stat = server.fs().read("/proc/stat", ctx).value();
  snap.uptime = server.fs().read("/proc/uptime", ctx).value();
  snap.loadavg = server.fs().read("/proc/loadavg", ctx).value();
  snap.interrupts = server.fs().read("/proc/interrupts", ctx).value();
  snap.power_w = server.power_w();
  snap.lifetime_j = server.host().lifetime_energy_j();
  snap.pkg0_uj = server.host().rapl()[0].package().energy_uj();
  snap.wraps = server.host().rapl()[0].package().state().wrap_count;
  return snap;
}

cloud::DatacenterConfig facility_config(bool sparse) {
  cloud::DatacenterConfig config;
  config.num_racks = 2;
  config.servers_per_rack = 4;
  config.benign_load = false;
  config.rack_power_cap_w = 1500.0;  // above idle draw: lifts every window
  config.seed = 77;
  config.sparse = sparse ? 1 : 0;
  return config;
}

// Server 0's tenant load, driven from outside the facility: a square wave
// (2 min on, 7 min off, phase 30 s) of four 0.6-duty workers. The caller
// applies it through dc.server(0).host() before every step, which settles
// server 0: in an off phase it wakes, coasts through the step and parks
// again, and the spawn that starts an on phase keeps it on the active
// list.
class SquareWave {
 public:
  void apply(kernel::Host& host) {
    const SimDuration cycle = kOn + kOff;
    const bool want_on = (host.now() + kPhase) % cycle < kOn;
    if (want_on == !pids_.empty()) return;
    if (!want_on) {
      for (const kernel::HostPid pid : pids_) host.kill_task(pid);
      pids_.clear();
      return;
    }
    for (int i = 0; i < 4; ++i) {
      kernel::Host::SpawnOptions options;
      options.comm = "onoff-worker";
      options.behavior.duty_cycle = 0.6;
      options.behavior.ipc = 1.2;
      options.behavior.cache_miss_per_kinst = 4.0;
      options.behavior.branch_miss_per_kinst = 6.0;
      options.behavior.io_rate_per_s = 10.0;
      options.behavior.rss_bytes = 64ULL << 20;
      pids_.push_back(host.spawn_task(options)->host_pid);
    }
  }

 private:
  static constexpr SimDuration kOn = 2 * kMinute;
  static constexpr SimDuration kOff = 7 * kMinute;
  static constexpr SimDuration kPhase = 30 * kSecond;
  std::vector<kernel::HostPid> pids_;
};

std::vector<ServerSnapshot> run_facility(bool sparse, int num_threads,
                                         int* slept = nullptr,
                                         int* wakes = nullptr) {
  cloud::DatacenterConfig config = facility_config(sparse);
  config.num_threads = num_threads;
  cloud::Datacenter dc(config);
  // Server 0 flips between load and idle: its wakeups, coast entries and
  // exits all happen mid-run. The other seven sleep throughout, so a
  // step that lowers the sleeping count is a wake of server 0.
  SquareWave load;
  int max_sleeping = 0;
  int woken = 0;
  for (int s = 0; s < 30 * 60; ++s) {
    load.apply(dc.server(0).host());
    const int before = dc.sleeping_servers();
    dc.step(kSecond);
    if (dc.sleeping_servers() < before) ++woken;
    max_sleeping = std::max(max_sleeping, dc.sleeping_servers());
  }
  if (slept != nullptr) *slept = max_sleeping;
  if (wakes != nullptr) *wakes = woken;
  std::vector<ServerSnapshot> snaps;
  for (int i = 0; i < dc.num_servers(); ++i) snaps.push_back(snapshot(dc.server(i)));
  return snaps;
}

TEST(SparseFacility, DenseAndSparseProduceIdenticalServerState) {
  int dense_slept = -1;
  int sparse_slept = -1;
  int dense_wakes = -1;
  int sparse_wakes = -1;
  const auto dense = run_facility(false, 1, &dense_slept, &dense_wakes);
  const auto sparse = run_facility(true, 1, &sparse_slept, &sparse_wakes);
  EXPECT_EQ(dense_slept, 0);  // dense never parks anyone
  EXPECT_EQ(dense_wakes, 0);
  // Server 0 parks in every off phase, so all eight sleep at once, and the
  // spawns that start its on phases at 8.5, 17.5 and 26.5 min wake it.
  EXPECT_EQ(sparse_slept, 8);
  EXPECT_EQ(sparse_wakes, 3);
  ASSERT_EQ(dense.size(), sparse.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(dense[i], sparse[i]) << "server " << i;
  }
}

TEST(SparseFacility, PowerHistogramObservesOnlyStepsThatRanPhysics) {
  // Constructing a facility registers its metrics.
  (void)cloud::Datacenter(facility_config(true));
  auto& registry = obs::Registry::global();
  auto& active = registry.counter("engine_active_server_steps_total");
  auto& power = registry.histogram("dc_server_power_mw", {});
  for (const bool sparse : {false, true}) {
    const std::uint64_t active_0 = active.value();
    const std::uint64_t power_0 = power.total_count();
    (void)run_facility(sparse, 1);
    const std::uint64_t active_steps = active.value() - active_0;
    // Server 0's on phases run physics; every other server-step coasts.
    EXPECT_GT(active_steps, 0u);
    EXPECT_LT(active_steps, 8u * 30u * 60u);
    EXPECT_EQ(power.total_count() - power_0, active_steps)
        << (sparse ? "parked" : "never-park") << " schedule";
  }
}

TEST(SparseFacility, SparseIsLaneCountIndependent) {
  const auto serial = run_facility(true, 1);
  EXPECT_EQ(run_facility(true, 4), serial);
}

TEST(SparseFacility, EngineCountersAccrueEquallyInBothModes) {
  auto& registry = obs::Registry::global();
  auto& active = registry.counter(
      "engine_active_server_steps_total",
      "server-steps that ran full per-tick physics (did not coast)");
  auto& coasted = registry.counter(
      "engine_idle_coasted_sim_seconds_total",
      "sim-seconds advanced through the analytic idle coast");
  auto run = [](bool sparse) {
    cloud::Datacenter dc(facility_config(sparse));
    for (int s = 0; s < 120; ++s) dc.step(kSecond);
  };
  const std::uint64_t active_0 = active.value();
  const std::uint64_t coasted_0 = coasted.value();
  run(false);
  const std::uint64_t active_dense = active.value() - active_0;
  const std::uint64_t coasted_dense = coasted.value() - coasted_0;
  run(true);
  const std::uint64_t active_sparse = active.value() - active_0 - active_dense;
  const std::uint64_t coasted_sparse =
      coasted.value() - coasted_0 - coasted_dense;
  // Fully idle facility: every server coasts every step in both modes.
  EXPECT_EQ(active_dense, 0u);
  EXPECT_EQ(coasted_dense, 8u * 120u);
  EXPECT_EQ(active_sparse, active_dense);
  EXPECT_EQ(coasted_sparse, coasted_dense);
}

// ---------- every non-const Server member settles ----------

struct SettledView {
  SimTime clock = 0;
  double lifetime_j = 0.0;
  std::string stat;

  bool operator==(const SettledView&) const = default;
};

SettledView settled_view(cloud::Server& server) {
  return {server.host().now(), server.host().lifetime_energy_j(),
          server.fs().read("/proc/stat", fs::ViewContext{}).value()};
}

cloud::DatacenterConfig idle_config(bool sparse, int racks) {
  cloud::DatacenterConfig config;
  config.num_racks = racks;
  config.servers_per_rack = 4;
  config.benign_load = false;
  config.seed = 7;
  config.num_threads = 1;
  config.sparse = sparse ? 1 : 0;
  return config;
}

// A reference taken before server 0 parks still reaches a server that is
// caught up and back on the active list: the server owns its debt, so no
// caller has to go through the facility to settle it.
TEST(SparseFacility, RetainedServerReferenceCatchesUpAndWakes) {
  auto run = [](bool sparse, int* sleeping) {
    cloud::Datacenter dc(idle_config(sparse, 2));
    cloud::Server& kept = dc.server(0);
    for (int s = 0; s < 10; ++s) dc.step(kSecond);
    EXPECT_EQ(dc.sleeping_servers(), sparse ? 8 : 0);
    auto tenant = kept.runtime().create({});
    tenant->run("pwrvirus", workload::power_virus().behavior);
    for (int s = 0; s < 10; ++s) dc.step(kSecond);
    *sleeping = dc.sleeping_servers();
    return settled_view(kept);
  };
  int never_park_sleeping = -1;
  int parked_sleeping = -1;
  const SettledView never_park = run(false, &never_park_sleeping);
  const SettledView parked = run(true, &parked_sleeping);
  EXPECT_EQ(never_park.clock, 20 * kSecond);
  EXPECT_EQ(parked.clock, never_park.clock);
  EXPECT_EQ(parked.lifetime_j, never_park.lifetime_j);
  EXPECT_EQ(parked.stat, never_park.stat);
  EXPECT_EQ(never_park_sleeping, 0);
  EXPECT_EQ(parked_sleeping, 7);  // server 0 runs the virus
}

// Each non-const member, driven on a parked server 0, lands on the
// never-park run's bits, and leaves server 0 parked only when it left the
// server idle.
TEST(SparseFacility, EveryNonConstServerMemberSettlesAParkedServer) {
  struct Member {
    const char* name;
    int parked_after;  ///< sleeping servers at the end, parked schedule
    std::function<std::string(cloud::Server&)> drive;
  };
  const std::vector<Member> members = {
      {"host", 3,
       [](cloud::Server& server) {
         kernel::Host::SpawnOptions options;
         options.comm = "worker";
         options.behavior.duty_cycle = 0.5;
         server.host().spawn_task(options);
         return std::string();
       }},
      {"fs", 4,
       [](cloud::Server& server) {
         return server.fs().read("/proc/uptime", fs::ViewContext{}).value();
       }},
      {"runtime", 3,
       [](cloud::Server& server) {
         auto tenant = server.runtime().create({});
         tenant->run("worker", workload::power_virus().behavior);
         return std::string();
       }},
      {"enable_benign_load", 3,
       [](cloud::Server& server) {
         server.enable_benign_load(99);
         return std::string();
       }},
      {"step", 4,
       [](cloud::Server& server) {
         server.step(kSecond);
         return std::string();
       }},
  };
  for (const Member& member : members) {
    auto run = [&](bool sparse, int* sleeping) {
      cloud::Datacenter dc(idle_config(sparse, 1));
      for (int s = 0; s < 10; ++s) dc.step(kSecond);
      EXPECT_EQ(dc.sleeping_servers(), sparse ? 4 : 0);
      const std::string read = member.drive(dc.server(0));
      for (int s = 0; s < 100; ++s) dc.step(kSecond);
      *sleeping = dc.sleeping_servers();
      return std::make_pair(read, settled_view(dc.server(0)));
    };
    int never_park_sleeping = -1;
    int parked_sleeping = -1;
    const auto never_park = run(false, &never_park_sleeping);
    const auto parked = run(true, &parked_sleeping);
    EXPECT_EQ(parked.first, never_park.first) << member.name;
    EXPECT_EQ(parked.second.clock, never_park.second.clock) << member.name;
    EXPECT_EQ(parked.second.lifetime_j, never_park.second.lifetime_j)
        << member.name;
    EXPECT_EQ(parked.second.stat, never_park.second.stat) << member.name;
    EXPECT_EQ(never_park_sleeping, 0) << member.name;
    EXPECT_EQ(parked_sleeping, member.parked_after) << member.name;
  }
}

// ---------- recorded dense-era goldens ----------

// The digests below are FNV-1a (util/fnv.h), matching the capture tool
// that recorded them from the last build that still had the
// visit-every-server branch as separate code. Pinning the numbers (not
// just dense == sparse) guards against a refactor that changes both modes
// in lockstep.

// The run_facility scenario, additionally folding the per-step rack power
// trace — the value whose aggregation moved from an O(N) fold on every
// read to the incrementally maintained cache.
std::uint64_t facility_trace_digest(bool sparse, int num_threads) {
  cloud::DatacenterConfig config = facility_config(sparse);
  config.num_threads = num_threads;
  cloud::Datacenter dc(config);
  SquareWave load;
  Fnv64 digest;
  for (int s = 0; s < 30 * 60; ++s) {
    load.apply(dc.server(0).host());
    dc.step(kSecond);
    for (int rack = 0; rack < config.num_racks; ++rack) {
      digest.add_double(dc.rack_power_w(rack));
    }
  }
  const fs::ViewContext ctx;
  for (int i = 0; i < dc.num_servers(); ++i) {
    cloud::Server& server = dc.server(i);
    digest.add_string(server.fs().read("/proc/stat", ctx).value());
    digest.add_string(server.fs().read("/proc/uptime", ctx).value());
    digest.add_string(server.fs().read("/proc/loadavg", ctx).value());
    digest.add_string(server.fs().read("/proc/interrupts", ctx).value());
    digest.add_double(server.power_w());
    digest.add_double(server.host().lifetime_energy_j());
    digest.add_u64(server.host().rapl()[0].package().energy_uj());
    digest.add_u64(server.host().rapl()[0].package().state().wrap_count);
  }
  return digest.hash;
}

TEST(SparseFacility, RecordedDenseEraTraceDigestHoldsInBothModes) {
  // Recorded from the pre-unification dense branch (sparse=0, 1 lane).
  constexpr std::uint64_t kRecorded = 0xc2a5ae66613f9ebfULL;
  EXPECT_EQ(facility_trace_digest(false, 1), kRecorded);
  EXPECT_EQ(facility_trace_digest(true, 1), kRecorded);
  EXPECT_EQ(facility_trace_digest(true, 4), kRecorded);
}

TEST(SparseFacility, RecordedDenseEraEndStateHexfloats) {
  // Spot values from the same capture, exact to the bit.
  const auto snaps = run_facility(true, 1);
  ASSERT_EQ(snaps.size(), 8u);
  for (const auto& snap : snaps) {
    EXPECT_EQ(snap.power_w, 0x1.28p+7);  // 148 W idle draw, pinned coasting
  }
  EXPECT_EQ(snaps[0].lifetime_j, 0x1.681b0c0ef429p+28);
  EXPECT_EQ(snaps[0].pkg0_uj, 58650857293u);
  EXPECT_EQ(snaps[3].lifetime_j, 0x1.6832ef1f0c6d3p+28);
  EXPECT_EQ(snaps[3].pkg0_uj, 104796198266u);
  EXPECT_EQ(snaps[4].lifetime_j, 0x1.22def4239e705p+29);
  EXPECT_EQ(snaps[4].pkg0_uj, 127566773631u);
  EXPECT_EQ(snaps[7].lifetime_j, 0x1.22dd3d7a90e8dp+29);
  EXPECT_EQ(snaps[7].pkg0_uj, 120548207828u);
}

// ---------- CLEAKS_SPARSE resolution ----------

bool sparse_with_env(const char* value) {
  if (value == nullptr) {
    unsetenv("CLEAKS_SPARSE");
  } else {
    setenv("CLEAKS_SPARSE", value, 1);
  }
  cloud::DatacenterConfig config;
  config.num_racks = 1;
  config.servers_per_rack = 1;
  config.benign_load = false;
  config.sparse = -1;  // defer to the environment
  const bool sparse = cloud::Datacenter(config).sparse();
  unsetenv("CLEAKS_SPARSE");
  return sparse;
}

TEST(SparseEnvResolver, StrictParseMatrix) {
  EXPECT_TRUE(sparse_with_env(nullptr));  // default: sparse on
  EXPECT_TRUE(sparse_with_env("1"));
  EXPECT_FALSE(sparse_with_env("0"));
  EXPECT_TRUE(sparse_with_env("2"));
  EXPECT_FALSE(sparse_with_env(" 0"));  // strtol skips leading whitespace
  // The regression this strictness fixes: every non-numeric value used to
  // parse as 0 and silently disable sparse stepping. Now it means "unset",
  // which falls back to the default (on).
  EXPECT_TRUE(sparse_with_env("true"));
  EXPECT_TRUE(sparse_with_env(""));
  EXPECT_TRUE(sparse_with_env("garbage"));
}

TEST(SparseEnvResolver, ExplicitConfigBeatsEnvironment) {
  setenv("CLEAKS_SPARSE", "0", 1);
  cloud::DatacenterConfig config;
  config.num_racks = 1;
  config.servers_per_rack = 1;
  config.benign_load = false;
  config.sparse = 1;
  EXPECT_TRUE(cloud::Datacenter(config).sparse());
  config.sparse = 0;
  unsetenv("CLEAKS_SPARSE");
  EXPECT_FALSE(cloud::Datacenter(config).sparse());
}

}  // namespace
}  // namespace cleaks
