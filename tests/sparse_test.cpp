// Sparse stepping: the discrete-event core (TimerWheel), the analytic
// idle-coast integrators, and the dense/sparse facility equivalence.
//
// The load-bearing property is bitwise equality: coasting an idle interval
// in one closed-form jump must land on exactly the bits the equivalent
// sequence of per-tick idle materialisations produces, for any split of
// the interval, across RAPL wrap boundaries, and through episode-ending
// mutations. The facility-level tests then pin that a sparse Datacenter
// (servers parked on the wheel, intervals deferred in O(1)) is
// indistinguishable from the dense reference in every rendered pseudo-file
// and every Scope::kSim counter.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cloud/datacenter.h"
#include "cloud/profiles.h"
#include "cloud/server.h"
#include "fs/pseudo_fs.h"
#include "kernel/host.h"
#include "obs/metrics.h"
#include "util/event_core.h"
#include "util/fnv.h"
#include "workload/onoff.h"

namespace cleaks {
namespace {

// ---------- timer wheel ----------

std::vector<std::uint32_t> ids(const std::vector<TimerWheel::Entry>& entries) {
  std::vector<std::uint32_t> out;
  for (const auto& entry : entries) out.push_back(entry.id);
  return out;
}

TEST(TimerWheel, PopsOnlyDueEntriesSortedByTimeThenId) {
  TimerWheel wheel;
  wheel.schedule(5 * kMinute, 3);
  wheel.schedule(1 * kMinute, 7);
  wheel.schedule(1 * kMinute, 2);
  EXPECT_EQ(wheel.size(), 3u);
  EXPECT_EQ(ids(wheel.pop_due(2 * kMinute)),
            (std::vector<std::uint32_t>{2, 7}));
  EXPECT_EQ(ids(wheel.pop_due(2 * kMinute)), std::vector<std::uint32_t>{});
  EXPECT_EQ(ids(wheel.pop_due(10 * kMinute)), std::vector<std::uint32_t>{3});
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, OverflowBeyondHorizonCascadesIn) {
  TimerWheel wheel(kMinute, 16);  // horizon: 16 minutes
  wheel.schedule(2 * kHour, 9);
  wheel.schedule(30 * kSecond, 1);
  EXPECT_EQ(ids(wheel.pop_due(kMinute)), std::vector<std::uint32_t>{1});
  EXPECT_EQ(ids(wheel.pop_due(kHour)), std::vector<std::uint32_t>{});
  EXPECT_EQ(ids(wheel.pop_due(3 * kHour)), std::vector<std::uint32_t>{9});
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, PastDeadlinesAndDuplicatesPopNext) {
  TimerWheel wheel;
  EXPECT_TRUE(wheel.pop_due(kHour).empty());  // clock jump on empty wheel
  wheel.schedule(kMinute, 4);  // already past the wheel clock
  wheel.schedule(kMinute, 4);
  EXPECT_EQ(ids(wheel.pop_due(kHour)), (std::vector<std::uint32_t>{4, 4}));
}

TEST(TimerWheelDeathTest, PopClockGoingBackwardsAssertsAndClamps) {
  TimerWheel wheel;
  wheel.schedule(5 * kMinute, 1);
  EXPECT_TRUE(wheel.pop_due(2 * kMinute).empty());
  // The contract was always "now must not go backwards"; it is now
  // enforced: debug builds assert, release builds clamp to the high-water
  // mark so the confused call degrades to a same-time pop instead of
  // re-popping drained windows.
  EXPECT_DEBUG_DEATH((void)wheel.pop_due(kMinute), "clock went backwards");
  EXPECT_EQ(ids(wheel.pop_due(10 * kMinute)), std::vector<std::uint32_t>{1});
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, SchedulesNearTheClockTopDoNotWrapTheHorizon) {
  // base + width * buckets can exceed the u64 range once the wheel clock
  // runs high; a wrapped horizon would classify every future entry as
  // in-bucket and corrupt the wheel. The horizon saturates at kNever
  // instead, and overflow entries that can then never cascade drain
  // directly when due.
  TimerWheel wheel(kMinute, 16);
  const SimTime top = TimerWheel::kNever;
  wheel.schedule(top - kSecond, 42);
  wheel.schedule(top, 7);
  EXPECT_TRUE(wheel.pop_due(top - kHour).empty());
  EXPECT_EQ(ids(wheel.pop_due(top - kSecond)), std::vector<std::uint32_t>{42});
  EXPECT_EQ(ids(wheel.pop_due(top)), std::vector<std::uint32_t>{7});
  EXPECT_TRUE(wheel.empty());
}

// ---------- host-level coast equivalence ----------

std::unique_ptr<kernel::Host> make_idle_host(std::uint64_t seed = 11) {
  auto host = std::make_unique<kernel::Host>("coast", cloud::cc1().hardware,
                                             seed, /*boot_time=*/0);
  host->set_tick_duration(kSecond);
  host->set_coast_enabled(true);
  return host;
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
  dense->advance_idle(interval);
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
  ticked->advance_idle(total);
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
  dense->advance_idle(30 * kMinute);
  EXPECT_TRUE(dense->coast_active());
  mutate(*dense);
  EXPECT_FALSE(dense->coast_active());
  dense->advance_idle(30 * kMinute);

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

workload::OnOffParams bursty() {
  workload::OnOffParams params;
  params.on_duration = 2 * kMinute;
  params.off_duration = 7 * kMinute;
  params.phase = 30 * kSecond;
  params.workers = 4;
  return params;
}

std::vector<ServerSnapshot> run_facility(bool sparse, int num_threads,
                                         int* slept = nullptr) {
  cloud::DatacenterConfig config = facility_config(sparse);
  config.num_threads = num_threads;
  cloud::Datacenter dc(config);
  // Server 0 flips between load and idle: its wheel wakeups, coast entries
  // and exits all happen mid-run. The other seven sleep throughout.
  dc.server(0).enable_onoff_load(bursty());
  int max_sleeping = 0;
  for (int s = 0; s < 30 * 60; ++s) {
    dc.step(kSecond);
    max_sleeping = std::max(max_sleeping, dc.sleeping_servers());
  }
  if (slept != nullptr) *slept = max_sleeping;
  std::vector<ServerSnapshot> snaps;
  for (int i = 0; i < dc.num_servers(); ++i) snaps.push_back(snapshot(dc.server(i)));
  return snaps;
}

TEST(SparseFacility, DenseAndSparseProduceIdenticalServerState) {
  int dense_slept = -1;
  int sparse_slept = -1;
  const auto dense = run_facility(false, 1, &dense_slept);
  const auto sparse = run_facility(true, 1, &sparse_slept);
  EXPECT_EQ(dense_slept, 0);   // dense never parks anyone
  EXPECT_GE(sparse_slept, 7);  // the seven idle servers sleep on the wheel
  ASSERT_EQ(dense.size(), sparse.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(dense[i], sparse[i]) << "server " << i;
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
  dc.server(0).enable_onoff_load(bursty());
  Fnv64 digest;
  for (int s = 0; s < 30 * 60; ++s) {
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
