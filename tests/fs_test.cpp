#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cloud/profiles.h"
#include "cloud/server.h"
#include "container/container.h"
#include "fs/pseudo_fs.h"
#include "leakage/channels.h"
#include "obs/metrics.h"
#include "util/fnv.h"
#include "util/strings.h"
#include "workload/profiles.h"

namespace cleaks::fs {
namespace {

struct Fixture {
  Fixture()
      : host("fs-host", hw::testbed_i7_6700(), 21),
        filesystem(host),
        runtime(host, filesystem) {
    host.set_tick_duration(100 * kMillisecond);
    container::ContainerConfig config;
    config.num_cpus = 4;
    config.memory_limit_bytes = 4ULL << 30;
    probe = runtime.create(config);
  }

  std::string host_read(const std::string& path) {
    ViewContext ctx;
    auto result = filesystem.read(path, ctx);
    return result.is_ok() ? result.value() : std::string{};
  }

  kernel::Host host;
  PseudoFs filesystem;
  container::ContainerRuntime runtime;
  std::shared_ptr<container::Container> probe;
};

// ---------- masking policy ----------

TEST(Masking, FirstMatchWins) {
  MaskingPolicy policy;
  policy.add_rule("/proc/meminfo", MaskAction::kRestrict);
  policy.add_rule("/proc/**", MaskAction::kDeny);
  EXPECT_EQ(policy.evaluate("/proc/meminfo"), MaskAction::kRestrict);
  EXPECT_EQ(policy.evaluate("/proc/stat"), MaskAction::kDeny);
  EXPECT_EQ(policy.evaluate("/sys/class/x"), MaskAction::kAllow);
}

TEST(Masking, DockerDefaultAllowsEverything) {
  const auto policy = MaskingPolicy::docker_default();
  EXPECT_TRUE(policy.empty());
  EXPECT_EQ(policy.evaluate("/proc/sched_debug"), MaskAction::kAllow);
}

TEST(Masking, PaperStage1DeniesEveryTable1Channel) {
  Fixture fixture;
  const auto policy = MaskingPolicy::paper_stage1();
  for (const auto& channel : leakage::table1_channels()) {
    for (const auto& path :
         leakage::channel_paths(channel, fixture.filesystem)) {
      EXPECT_EQ(policy.evaluate(path), MaskAction::kDeny) << path;
    }
  }
}

TEST(Masking, PaperStage1LeavesNamespacedFilesAlone) {
  const auto policy = MaskingPolicy::paper_stage1();
  EXPECT_EQ(policy.evaluate("/proc/self/cgroup"), MaskAction::kAllow);
  EXPECT_EQ(policy.evaluate("/proc/net/dev"), MaskAction::kAllow);
  EXPECT_EQ(policy.evaluate("/proc/sys/kernel/hostname"), MaskAction::kAllow);
}

// ---------- tree and read dispatch ----------

TEST(PseudoFs, ListsAllTable1ChannelPaths) {
  Fixture fixture;
  for (const auto& channel : leakage::table1_channels()) {
    EXPECT_FALSE(
        leakage::channel_paths(channel, fixture.filesystem).empty())
        << channel.row;
  }
}

TEST(PseudoFs, UnknownPathIsNotFound) {
  Fixture fixture;
  ViewContext ctx;
  // The error message names the offending path (Matches checks both).
  EXPECT_TRUE(fixture.filesystem.read("/proc/nonexistent", ctx)
                  .status()
                  .Matches(StatusCode::kNotFound, "/proc/nonexistent"));
}

TEST(PseudoFs, HostReadsEveryRegisteredPath) {
  Fixture fixture;
  ViewContext ctx;
  for (const auto& path : fixture.filesystem.list_paths()) {
    const auto result = fixture.filesystem.read(path, ctx);
    EXPECT_TRUE(result.is_ok()) << path;
  }
}

TEST(PseudoFs, DenyPolicyOnlyAffectsContainers) {
  kernel::Host host("h", hw::testbed_i7_6700(), 3);
  PseudoFs filesystem(host);
  container::ContainerRuntime runtime(host, filesystem,
                                      MaskingPolicy::paper_stage1());
  auto instance = runtime.create({});
  EXPECT_TRUE(instance->read_file("/proc/uptime")
                  .status()
                  .Matches(StatusCode::kPermissionDenied, "/proc/uptime"));
  ViewContext host_ctx;  // host context ignores the policy
  EXPECT_TRUE(filesystem.read("/proc/uptime", host_ctx).is_ok());
}

// ---------- shared file tables ----------

// Path sets recorded when every host still built its own table: one
// default-seeded Fnv64 over list_paths(), one add_string per path in order.
TEST(PseudoFs, SharedRegistryMatchesRecordedPathSets) {
  struct Recorded {
    cloud::CloudServiceProfile profile;
    std::size_t paths;
    std::uint64_t digest;
  };
  const Recorded testbed{cloud::local_testbed(), 184, 0xe96eca7630013606ULL};
  const Recorded cc1{cloud::cc1(), 628, 0x84f8d3514413992aULL};
  const Recorded cc4{cloud::cc4(), 466, 0x171fd7a1cc1e285bULL};
  // Interleaved, so a table handed to the wrong geometry would show.
  int seed = 0;
  for (const Recorded* recorded : {&testbed, &cc1, &cc4, &cc1, &testbed}) {
    kernel::Host host(recorded->profile.name, recorded->profile.hardware,
                      static_cast<std::uint64_t>(++seed));
    PseudoFs filesystem(host);
    const auto paths = filesystem.list_paths();
    Fnv64 digest;
    for (const auto& path : paths) digest.add_string(path);
    EXPECT_EQ(paths.size(), recorded->paths) << recorded->profile.name;
    EXPECT_EQ(digest.hash, recorded->digest) << recorded->profile.name;
  }
}

// ---------- leaking generators: container view == host view ----------

class LeakingPathTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LeakingPathTest, ContainerSeesHostData) {
  Fixture fixture;
  const std::string path = GetParam();
  const auto container_view = fixture.probe->read_file(path);
  ASSERT_TRUE(container_view.is_ok()) << path;
  EXPECT_EQ(container_view.value(), fixture.host_read(path)) << path;
  EXPECT_FALSE(container_view.value().empty()) << path;
}

INSTANTIATE_TEST_SUITE_P(
    Table1, LeakingPathTest,
    ::testing::Values("/proc/uptime", "/proc/version", "/proc/stat",
                      "/proc/meminfo", "/proc/loadavg", "/proc/interrupts",
                      "/proc/softirqs", "/proc/cpuinfo", "/proc/schedstat",
                      "/proc/zoneinfo", "/proc/timer_list",
                      "/proc/sched_debug", "/proc/modules",
                      "/proc/sys/kernel/random/boot_id",
                      "/proc/sys/kernel/random/entropy_avail",
                      "/proc/sys/fs/file-nr", "/proc/sys/fs/inode-nr",
                      "/proc/sys/fs/dentry-state",
                      "/proc/fs/ext4/sda1/mb_groups",
                      "/sys/fs/cgroup/net_prio/net_prio.ifpriomap",
                      "/sys/devices/system/node/node0/numastat",
                      "/sys/class/powercap/intel-rapl:0/energy_uj"));

// ---------- namespaced generators: container view differs ----------

TEST(Render, HostnameIsUtsNamespaced) {
  Fixture fixture;
  const auto container_view =
      fixture.probe->read_file("/proc/sys/kernel/hostname").value();
  EXPECT_EQ(container_view, fixture.probe->id() + "\n");
  EXPECT_NE(container_view, fixture.host_read("/proc/sys/kernel/hostname"));
}

TEST(Render, NetDevIsNetNamespaced) {
  Fixture fixture;
  const auto container_view = fixture.probe->read_file("/proc/net/dev").value();
  EXPECT_TRUE(contains(container_view, "eth0"));
  EXPECT_FALSE(contains(container_view, "docker0"));
  EXPECT_TRUE(contains(fixture.host_read("/proc/net/dev"), "docker0"));
}

TEST(Render, SelfCgroupShowsContainerPath) {
  Fixture fixture;
  const auto view = fixture.probe->read_file("/proc/self/cgroup").value();
  EXPECT_TRUE(contains(view, "/docker/" + fixture.probe->id()));
}

TEST(Render, SelfStatusShowsNamespacePid) {
  Fixture fixture;
  const auto view = fixture.probe->read_file("/proc/self/status").value();
  EXPECT_TRUE(contains(view, "Pid:\t1"));  // init of the PID namespace
}

// ---------- content checks ----------

TEST(Render, UptimeHasTwoFields) {
  Fixture fixture;
  fixture.host.advance(10 * kSecond);
  const auto nums =
      extract_numbers(fixture.probe->read_file("/proc/uptime").value());
  ASSERT_EQ(nums.size(), 2u);
  EXPECT_NEAR(nums[0], 10.0, 0.5);
  EXPECT_GT(nums[1], 50.0);  // 8 mostly idle cores
}

TEST(Render, StatHasPerCpuLinesAndTotals) {
  Fixture fixture;
  fixture.host.advance(kSecond);
  const auto text = fixture.host_read("/proc/stat");
  EXPECT_TRUE(contains(text, "cpu "));
  EXPECT_TRUE(contains(text, "cpu7"));
  EXPECT_TRUE(contains(text, "ctxt "));
  EXPECT_TRUE(contains(text, "btime 1480291200"));
  EXPECT_TRUE(contains(text, "procs_running"));
}

TEST(Render, MeminfoIsConsistent) {
  Fixture fixture;
  const auto text = fixture.host_read("/proc/meminfo");
  const auto lines = split_lines(text);
  ASSERT_GE(lines.size(), 5u);
  const auto total = parse_first_int(lines[0]);
  const auto free_kb = parse_first_int(lines[1]);
  EXPECT_EQ(total, 16 * 1024 * 1024);
  EXPECT_GT(free_kb, 0);
  EXPECT_LT(free_kb, total);
}

TEST(Render, CpuinfoListsAllCoresWithModel) {
  Fixture fixture;
  const auto text = fixture.host_read("/proc/cpuinfo");
  EXPECT_TRUE(contains(text, "processor\t: 7"));
  EXPECT_TRUE(contains(text, "i7-6700"));
  EXPECT_TRUE(contains(text, "GenuineIntel"));
}

TEST(Render, TimerListShowsImplantedTimer) {
  Fixture fixture;
  kernel::TaskBehavior behavior;
  behavior.duty_cycle = 0.1;
  behavior.named_timers = 1;
  fixture.probe->run("mysignature42", behavior);
  const auto text = fixture.probe->read_file("/proc/timer_list").value();
  EXPECT_TRUE(contains(text, "mysignature42"));
}

TEST(Render, SchedDebugShowsAllTasksWithHostPids) {
  Fixture fixture;
  auto task = fixture.probe->run("findme", {});
  const auto text = fixture.host_read("/proc/sched_debug");
  EXPECT_TRUE(contains(text, "findme"));
  EXPECT_TRUE(contains(text, std::to_string(task->host_pid)));
  EXPECT_TRUE(contains(text, "dockerd"));  // host daemons visible too
}

TEST(Render, LocksListsHolders) {
  Fixture fixture;
  const auto baseline =
      split_lines(fixture.probe->read_file("/proc/locks").value()).size();
  EXPECT_GT(baseline, 0u);  // system daemons hold pid-file locks
  kernel::TaskBehavior behavior;
  behavior.duty_cycle = 0.01;
  behavior.file_locks = 3;
  fixture.probe->run("locker", behavior);
  const auto text = fixture.probe->read_file("/proc/locks").value();
  EXPECT_EQ(split_lines(text).size(), baseline + 3);
  EXPECT_TRUE(contains(text, "POSIX  ADVISORY  WRITE"));
}

TEST(Render, IfpriomapLeaksHostDevicesIntoContainer) {
  Fixture fixture;
  const auto text =
      fixture.probe->read_file("/sys/fs/cgroup/net_prio/net_prio.ifpriomap")
          .value();
  // The container's NET namespace has only lo+eth0, yet the map shows the
  // host's devices — including this container's own host-side veth.
  EXPECT_TRUE(contains(text, "docker0"));
  EXPECT_TRUE(contains(text, "veth" + fixture.probe->id().substr(0, 7)));
}

TEST(Render, IfpriomapShowsCgroupPriorities) {
  Fixture fixture;
  fixture.probe->cgroup()->net_prio.ifpriomap["eth0"] = 3;
  const auto text =
      fixture.probe->read_file("/sys/fs/cgroup/net_prio/net_prio.ifpriomap")
          .value();
  EXPECT_TRUE(contains(text, "eth0 3"));
}

TEST(Render, RaplEnergyMatchesHardwareCounter) {
  Fixture fixture;
  fixture.host.advance(5 * kSecond);
  const auto text =
      fixture.host_read("/sys/class/powercap/intel-rapl:0/energy_uj");
  EXPECT_EQ(static_cast<std::uint64_t>(parse_first_int(text)),
            fixture.host.rapl()[0].package().energy_uj());
}

TEST(Render, RaplSubdomainsPresent) {
  Fixture fixture;
  EXPECT_EQ(fixture.host_read(
                "/sys/class/powercap/intel-rapl:0/intel-rapl:0:0/name"),
            "core\n");
  EXPECT_EQ(fixture.host_read(
                "/sys/class/powercap/intel-rapl:0/intel-rapl:0:1/name"),
            "dram\n");
}

TEST(Render, NoRaplPathsWithoutHardware) {
  kernel::Host host("old", hw::pre_sandy_bridge_server(), 4);
  PseudoFs filesystem(host);
  ViewContext ctx;
  EXPECT_TRUE(
      filesystem.read("/sys/class/powercap/intel-rapl:0/energy_uj", ctx)
          .status()
          .Matches(StatusCode::kNotFound, "energy_uj"));
}

TEST(Render, CoretempReflectsThermalModel) {
  Fixture fixture;
  fixture.host.advance(kSecond);
  const auto text = fixture.host_read(
      "/sys/devices/platform/coretemp.0/hwmon/hwmon1/temp2_input");
  EXPECT_EQ(parse_first_int(text), fixture.host.thermal().temp_millic(0));
}

TEST(Render, CpuidleCountersExposed) {
  Fixture fixture;
  fixture.host.advance(5 * kSecond);
  const auto usage = parse_first_int(fixture.host_read(
      "/sys/devices/system/cpu/cpu0/cpuidle/state4/usage"));
  const auto time_us = parse_first_int(fixture.host_read(
      "/sys/devices/system/cpu/cpu0/cpuidle/state4/time"));
  EXPECT_GT(usage, 0);
  EXPECT_GT(time_us, 0);
}

// ---------- restricted (CC5-style) views ----------

TEST(Restricted, CpuinfoShowsOnlyTenantCores) {
  kernel::Host host("cc5ish", hw::testbed_i7_6700(), 9);
  PseudoFs filesystem(host);
  MaskingPolicy policy;
  policy.add_rule("/proc/cpuinfo", MaskAction::kRestrict);
  container::ContainerRuntime runtime(host, filesystem, policy);
  container::ContainerConfig config;
  config.num_cpus = 2;
  auto instance = runtime.create(config);
  const auto text = instance->read_file("/proc/cpuinfo").value();
  int processors = 0;
  for (const auto& line : split_lines(text)) {
    if (starts_with(line, "processor")) ++processors;
  }
  EXPECT_EQ(processors, 2);
}

TEST(Restricted, MeminfoShowsCgroupLimit) {
  kernel::Host host("cc5ish", hw::testbed_i7_6700(), 9);
  PseudoFs filesystem(host);
  MaskingPolicy policy;
  policy.add_rule("/proc/meminfo", MaskAction::kRestrict);
  container::ContainerRuntime runtime(host, filesystem, policy);
  container::ContainerConfig config;
  config.memory_limit_bytes = 2ULL << 30;
  auto instance = runtime.create(config);
  const auto text = instance->read_file("/proc/meminfo").value();
  EXPECT_EQ(parse_first_int(split_lines(text)[0]), 2 * 1024 * 1024);
}

// ---------- container-context renders: reuse-key edges ----------

namespace {

std::uint64_t viewer_hits() {
  return obs::Registry::global().counter("fs_viewer_cache_hits_total").value();
}
std::uint64_t viewer_misses() {
  return obs::Registry::global()
      .counter("fs_viewer_cache_misses_total")
      .value();
}

}  // namespace

TEST(ViewerCache, RepeatContainerReadRendersEachTime) {
  Fixture fixture;
  const std::uint64_t misses_before = viewer_misses();
  const auto first = fixture.probe->read_file("/proc/meminfo").value();
  EXPECT_EQ(viewer_misses(), misses_before + 1);
  const auto second = fixture.probe->read_file("/proc/meminfo").value();
  EXPECT_EQ(second, first);
  EXPECT_EQ(viewer_misses(), misses_before + 2);  // nothing memoized
}

TEST(ViewerCache, HostTickInvalidates) {
  Fixture fixture;
  const auto before = fixture.probe->read_file("/proc/uptime").value();
  fixture.host.advance(5 * kSecond);
  const std::uint64_t hits_before = viewer_hits();
  const auto after = fixture.probe->read_file("/proc/uptime").value();
  EXPECT_NE(after, before);                // fresh render
  EXPECT_EQ(viewer_hits(), hits_before);   // nothing is ever served memoized
}

TEST(ViewerCache, MaskUnmaskViaStage1StaysCorrect) {
  kernel::Host host("flip", hw::testbed_i7_6700(), 9);
  PseudoFs filesystem(host);
  container::ContainerRuntime runtime(host, filesystem);
  container::ContainerConfig config;
  config.memory_limit_bytes = 2ULL << 30;
  auto instance = runtime.create(config);

  const auto open_view = instance->read_file("/proc/meminfo").value();
  EXPECT_EQ(parse_first_int(split_lines(open_view)[0]), 16 * 1024 * 1024);

  MaskingPolicy restrict_policy;
  restrict_policy.add_rule("/proc/meminfo", MaskAction::kRestrict);
  runtime.set_policy(restrict_policy);  // stage-1 rollout
  const auto masked_view = instance->read_file("/proc/meminfo").value();
  EXPECT_EQ(parse_first_int(split_lines(masked_view)[0]), 2 * 1024 * 1024);

  runtime.set_policy(MaskingPolicy::docker_default());  // unmask
  const auto reopened = instance->read_file("/proc/meminfo").value();
  EXPECT_EQ(reopened, open_view);
}

TEST(ViewerCache, CgroupLimitChangeRefreshesRestrictedView) {
  kernel::Host host("limits", hw::testbed_i7_6700(), 9);
  PseudoFs filesystem(host);
  MaskingPolicy policy;
  policy.add_rule("/proc/meminfo", MaskAction::kRestrict);
  container::ContainerRuntime runtime(host, filesystem, policy);
  container::ContainerConfig config;
  config.memory_limit_bytes = 4ULL << 30;
  auto instance = runtime.create(config);
  const auto before = instance->read_file("/proc/meminfo").value();
  EXPECT_EQ(parse_first_int(split_lines(before)[0]), 4 * 1024 * 1024);

  // Tighten the limit in place: the next read renders the new limit.
  instance->cgroup()->memory.limit_bytes = 2ULL << 30;
  const auto after = instance->read_file("/proc/meminfo").value();
  EXPECT_EQ(parse_first_int(split_lines(after)[0]), 2 * 1024 * 1024);
}

TEST(ViewerCache, DestroyRecreateReusedIdGetsFreshView) {
  kernel::Host host("reuse", hw::testbed_i7_6700(), 9);
  PseudoFs filesystem(host);
  MaskingPolicy policy;
  policy.add_rule("/proc/meminfo", MaskAction::kRestrict);

  container::ContainerRuntime first_runtime(host, filesystem, policy);
  container::ContainerConfig config;
  config.memory_limit_bytes = 4ULL << 30;
  auto first = first_runtime.create(config);
  const std::string first_id = first->id();
  const auto first_view = first->read_file("/proc/meminfo").value();
  EXPECT_EQ(parse_first_int(split_lines(first_view)[0]), 4 * 1024 * 1024);
  first_runtime.destroy(first->id());

  // A second runtime on the same host replays the same id stream, so the
  // new container reuses the dead one's id — but its namespaces are a new
  // incarnation and its limit differs. Its view must show the new limit,
  // never the old bytes.
  container::ContainerRuntime second_runtime(host, filesystem, policy);
  config.memory_limit_bytes = 2ULL << 30;
  auto second = second_runtime.create(config);
  ASSERT_EQ(second->id(), first_id);
  const auto second_view = second->read_file("/proc/meminfo").value();
  EXPECT_EQ(parse_first_int(split_lines(second_view)[0]), 2 * 1024 * 1024);
}

// ---------- recorded bytes of every host-context path ----------

// The digests below were recorded while every per-CPU counter was still a
// per-CPU vector. One default-seeded Fnv64 over every host-context path of
// `server`, /proc/<pid>/* included: each path, its read status, its bytes.
// /proc/containerleaks is skipped: it renders the process-wide metrics
// registry, which every earlier test in this binary has moved.
std::uint64_t host_view_digest(cloud::Server& server) {
  const ViewContext host_ctx;
  Fnv64 digest;
  std::string bytes;
  for (const auto& path : server.fs().list_paths(host_ctx)) {
    if (path == "/proc/containerleaks") continue;
    const StatusCode code = server.fs().read_into(path, host_ctx, bytes);
    digest.add_string(path);
    digest.add_u64(static_cast<std::uint64_t>(code));
    digest.add_string(bytes);
  }
  return digest.hash;
}

// Label -> per-CPU counts of a /proc/interrupts or /proc/softirqs table.
std::map<std::string, std::vector<std::uint64_t>> per_cpu_rows(
    const std::string& table, int cpus) {
  std::map<std::string, std::vector<std::uint64_t>> rows;
  for (const auto& line : split_lines(table)) {
    const auto fields = split_whitespace(line);
    if (fields.empty() || fields[0].back() != ':') continue;  // CPU header
    auto& row = rows[fields[0].substr(0, fields[0].size() - 1)];
    for (int cpu = 0; cpu < cpus; ++cpu) {
      row.push_back(std::stoull(fields.at(static_cast<std::size_t>(cpu) + 1)));
    }
  }
  return rows;
}

// Timer, scheduler and reschedule counts rise by the same amount on every
// CPU; NIC and disk counts land on CPU0 alone. Prior-uptime seeding sets
// every softirq row to the same count on every CPU, which the untouched HI
// row shows (0 on a host with no prior uptime).
void expect_lockstep_tables(cloud::Server& server) {
  const ViewContext host_ctx;
  const int cpus = server.host().spec().num_cores;
  const auto irqs = per_cpu_rows(
      server.fs().read("/proc/interrupts", host_ctx).value(), cpus);
  const auto softirqs = per_cpu_rows(
      server.fs().read("/proc/softirqs", host_ctx).value(), cpus);
  const auto expect_equal_across_cpus = [cpus](const auto& row,
                                               const std::string& label) {
    for (int cpu = 1; cpu < cpus; ++cpu) {
      EXPECT_EQ(row[static_cast<std::size_t>(cpu)], row[0])
          << label << " cpu" << cpu;
    }
  };
  for (const char* label : {"LOC", "0", "RES"}) {
    expect_equal_across_cpus(irqs.at(label), label);
  }
  for (const char* label : {"TIMER", "SCHED"}) {
    expect_equal_across_cpus(softirqs.at(label), label);
  }
  for (const char* label : {"25", "27"}) {
    const auto& row = irqs.at(label);
    EXPECT_GT(row[0], 0u) << label;
    for (int cpu = 1; cpu < cpus; ++cpu) {
      EXPECT_EQ(row[static_cast<std::size_t>(cpu)], 0u)
          << label << " cpu" << cpu;
    }
  }
  const auto& base = softirqs.at("HI");
  for (const char* label : {"NET_RX", "BLOCK"}) {
    const auto& row = softirqs.at(label);
    EXPECT_GT(row[0], base[0]) << label;
    for (int cpu = 1; cpu < cpus; ++cpu) {
      const auto i = static_cast<std::size_t>(cpu);
      EXPECT_EQ(row[i], base[i]) << label << " cpu" << cpu;
    }
  }
}

void step_seconds(cloud::Server& server, int seconds) {
  for (int s = 0; s < seconds; ++s) server.step(kSecond);
}

// Four idle tenant containers keep the server ticking, as in a storm-heavy
// fleet: every counter moves only through the per-tick path.
TEST(HostBytes, IdleContainersMatchRecording) {
  const auto profile = cloud::cc1();
  cloud::Server server("bytes-idle", profile, 101, 30 * kDay + 7 * kHour);
  container::ContainerConfig config;
  config.num_cpus = profile.default_container_cpus;
  config.memory_limit_bytes = profile.default_memory_limit;
  for (int i = 0; i < 4; ++i) server.runtime().create(config);
  step_seconds(server, 300);
  EXPECT_EQ(host_view_digest(server), 0x535a0ca8cfe39e2fULL);
  expect_lockstep_tables(server);
}

// Diurnal benign load plus an 8-CPU container running a power virus on each
// of its cores, as on an attacked server; no prior uptime, so NET_RX and
// BLOCK are non-zero on CPU0 alone.
TEST(HostBytes, BusyContainerUnderBenignLoadMatchesRecording) {
  cloud::Server server("bytes-busy", cloud::cc1(), 202);
  server.enable_benign_load(303);
  container::ContainerConfig config;
  config.num_cpus = 8;
  config.memory_limit_bytes = 8ULL << 30;
  auto attacker = server.runtime().create(config);
  const auto virus = workload::power_virus();
  for (int copy = 0; copy < 8; ++copy) {
    attacker->run("pwrvirus-" + std::to_string(copy), virus.behavior);
  }
  step_seconds(server, 300);
  EXPECT_EQ(host_view_digest(server), 0xe230e999025f116fULL);
  expect_lockstep_tables(server);
}

// An idle server coasts; the read materialises 600 s of coast at once.
TEST(HostBytes, IdleServerAfterCoastMatchesRecording) {
  cloud::Server server("bytes-coast", cloud::cc1(), 404, 45 * kDay);
  step_seconds(server, 600);
  EXPECT_TRUE(server.coast_active());
  EXPECT_EQ(host_view_digest(server), 0x9cbb5c26a0c43582ULL);
  expect_lockstep_tables(server);
}

}  // namespace
}  // namespace cleaks::fs
