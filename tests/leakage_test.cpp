#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "defense/power_namespace.h"
#include "defense/trainer.h"
#include "faults/injector.h"
#include "leakage/channels.h"
#include "leakage/detector.h"
#include "leakage/inspector.h"
#include "obs/metrics.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace cleaks::leakage {
namespace {

/// One shared scan over the local testbed (scans are deterministic, and a
/// fresh scan per test would be needlessly slow).
class LocalScan : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    server_ = new cloud::Server("scan-host", cloud::local_testbed(), 77,
                                40 * kDay);
    CrossValidator validator(*server_);
    findings_ = new std::map<std::string, LeakClass>();
    for (const auto& finding : validator.scan()) {
      (*findings_)[finding.path] = finding.cls;
    }
  }
  static void TearDownTestSuite() {
    delete findings_;
    delete server_;
    findings_ = nullptr;
    server_ = nullptr;
  }

  static LeakClass cls(const std::string& path) {
    auto it = findings_->find(path);
    return it == findings_->end() ? LeakClass::kAbsent : it->second;
  }

  static cloud::Server* server_;
  static std::map<std::string, LeakClass>* findings_;
};

cloud::Server* LocalScan::server_ = nullptr;
std::map<std::string, LeakClass>* LocalScan::findings_ = nullptr;

class LeakingChannelTest : public LocalScan,
                           public ::testing::WithParamInterface<const char*> {
};

TEST_P(LeakingChannelTest, DetectedAsLeaking) {
  EXPECT_EQ(cls(GetParam()), LeakClass::kLeaking) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Table1, LeakingChannelTest,
    ::testing::Values(
        "/proc/locks", "/proc/zoneinfo", "/proc/modules", "/proc/timer_list",
        "/proc/sched_debug", "/proc/softirqs", "/proc/uptime",
        "/proc/version", "/proc/stat", "/proc/meminfo", "/proc/loadavg",
        "/proc/interrupts", "/proc/cpuinfo", "/proc/schedstat",
        "/proc/sys/fs/file-nr", "/proc/sys/fs/inode-nr",
        "/proc/sys/fs/dentry-state", "/proc/sys/kernel/random/boot_id",
        "/proc/sys/kernel/random/entropy_avail",
        "/proc/sys/kernel/sched_domain/cpu0/domain0/max_newidle_lb_cost",
        "/proc/fs/ext4/sda1/mb_groups",
        "/sys/fs/cgroup/net_prio/net_prio.ifpriomap",
        "/sys/devices/system/node/node0/numastat",
        "/sys/devices/system/cpu/cpu0/cpuidle/state0/usage",
        "/sys/devices/platform/coretemp.0/hwmon/hwmon1/temp1_input",
        "/sys/class/powercap/intel-rapl:0/energy_uj"));

class NamespacedChannelTest
    : public LocalScan,
      public ::testing::WithParamInterface<const char*> {};

TEST_P(NamespacedChannelTest, DetectedAsIsolated) {
  EXPECT_EQ(cls(GetParam()), LeakClass::kNamespaced) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(ContrastCases, NamespacedChannelTest,
                         ::testing::Values("/proc/sys/kernel/hostname",
                                           "/proc/self/cgroup",
                                           "/proc/self/status"));

TEST_F(LocalScan, MajorityOfTreeLeaksOnStockDocker) {
  int leaking = 0;
  int total = 0;
  for (const auto& [path, leak_class] : *findings_) {
    ++total;
    if (leak_class == LeakClass::kLeaking) ++leaking;
  }
  // On an unhardened 2016 Docker host nearly every registered pseudo file
  // reads the same kernel data in both contexts.
  EXPECT_GT(leaking, total * 3 / 4);
}

// ---------- masking / hardware-absence handling ----------

TEST(Detector, Stage1MaskingTurnsChannelsToMasked) {
  cloud::CloudServiceProfile profile = cloud::local_testbed();
  profile.policy = fs::MaskingPolicy::paper_stage1();
  cloud::Server server("masked-host", profile, 3, 10 * kDay);
  CrossValidator validator(server);
  const auto findings = validator.scan();
  int masked = 0;
  for (const auto& finding : findings) {
    if (finding.cls == LeakClass::kMasked) ++masked;
    EXPECT_NE(finding.cls, LeakClass::kLeaking) << finding.path;
  }
  EXPECT_GT(masked, 20);
}

TEST(Detector, RaplChannelsAbsentWithoutHardware) {
  cloud::Server server("old-host", cloud::cc4(), 5, 10 * kDay);
  for (const auto& path : server.fs().list_paths()) {
    EXPECT_EQ(path.find("intel-rapl"), std::string::npos) << path;
  }
}

TEST(Detector, Cc5RestrictedStatIsPartialLeak) {
  cloud::Server server("cc5-host", cloud::cc5(), 6, 10 * kDay);
  ScanOptions options;
  container::ContainerConfig config;
  config.num_cpus = 4;
  config.memory_limit_bytes = 8ULL << 30;
  options.probe_config = config;
  CrossValidator validator(server, options);
  std::map<std::string, LeakClass> by_path;
  for (const auto& finding : validator.scan()) {
    by_path[finding.path] = finding.cls;
  }
  EXPECT_EQ(by_path.at("/proc/stat"), LeakClass::kPartial);
  EXPECT_EQ(by_path.at("/proc/locks"), LeakClass::kMasked);
  EXPECT_EQ(by_path.at("/proc/timer_list"), LeakClass::kLeaking);
}

// ---------- channel catalog ----------

TEST(Channels, TwentyOneTable1Rows) {
  const auto channels = table1_channels();
  EXPECT_EQ(channels.size(), 21u);
  EXPECT_EQ(channels.front().row, "/proc/locks");
  EXPECT_EQ(channels.back().row, "/sys/class/*");
}

TEST(Channels, VulnerabilityFlagsMatchPaper) {
  for (const auto& channel : table1_channels()) {
    EXPECT_TRUE(channel.vuln_info_leak) << channel.row;  // all leak info
    if (channel.row == "/proc/modules" || channel.row == "/proc/version") {
      EXPECT_FALSE(channel.vuln_coresidence) << channel.row;
    }
    if (channel.row == "/proc/stat" || channel.row == "/proc/meminfo") {
      EXPECT_TRUE(channel.vuln_dos) << channel.row;
    }
  }
}

TEST(Channels, Table2ListsTwentyNineChannels) {
  EXPECT_EQ(table2_channel_globs().size(), 29u);
}

TEST(Channels, GlobExpansionFindsPaths) {
  kernel::Host host("h", hw::testbed_i7_6700(), 2);
  fs::PseudoFs filesystem(host);
  const auto channels = table1_channels();
  for (const auto& channel : channels) {
    EXPECT_FALSE(channel_paths(channel, filesystem).empty()) << channel.row;
  }
}

// ---------- inspector (Table I matrix) ----------

TEST(Inspector, MatrixMatchesCloudPolicies) {
  CloudInspector inspector({cloud::cc1(), cloud::cc4(), cloud::cc5()}, 13);
  const auto matrix = inspector.inspect();
  ASSERT_EQ(matrix.size(), 21u);
  auto row = [&](const std::string& name) -> const ChannelAvailability& {
    for (const auto& entry : matrix) {
      if (entry.channel.row == name) return entry;
    }
    throw std::logic_error("row not found: " + name);
  };
  // sched_debug: masked on CC1/CC4, leaking on CC5.
  EXPECT_NE(row("/proc/sched_debug").per_cloud.at("CC1"),
            LeakClass::kLeaking);
  EXPECT_EQ(row("/proc/sched_debug").per_cloud.at("CC5"),
            LeakClass::kLeaking);
  // uptime: leaks on CC1/CC4, denied on CC5.
  EXPECT_EQ(row("/proc/uptime").per_cloud.at("CC1"), LeakClass::kLeaking);
  EXPECT_EQ(row("/proc/uptime").per_cloud.at("CC4"), LeakClass::kLeaking);
  EXPECT_NE(row("/proc/uptime").per_cloud.at("CC5"), LeakClass::kLeaking);
  // /sys/class/* (RAPL): leaks on CC1, unavailable on CC4 (no hardware).
  EXPECT_EQ(row("/sys/class/*").per_cloud.at("CC1"), LeakClass::kLeaking);
  EXPECT_NE(row("/sys/class/*").per_cloud.at("CC4"), LeakClass::kLeaking);
  // version/modules leak everywhere (nobody masks them).
  for (const char* cloud_name : {"CC1", "CC4", "CC5"}) {
    EXPECT_EQ(row("/proc/version").per_cloud.at(cloud_name),
              LeakClass::kLeaking);
    EXPECT_EQ(row("/proc/modules").per_cloud.at(cloud_name),
              LeakClass::kLeaking);
  }
}

TEST(Inspector, SymbolsMatchTableLegend) {
  EXPECT_EQ(CloudInspector::symbol(LeakClass::kLeaking), "●");
  EXPECT_EQ(CloudInspector::symbol(LeakClass::kPartial), "◐");
  EXPECT_EQ(CloudInspector::symbol(LeakClass::kMasked), "○");
  EXPECT_EQ(CloudInspector::symbol(LeakClass::kAbsent), "○");
}

// ---------- incremental rescans (PR 5) ----------

TEST(Incremental, UnchangedWorldWarmScanReusesEverything) {
  cloud::Server server("warm-host", cloud::local_testbed(), 77, 40 * kDay);
  CrossValidator validator(server);
  const auto cold = validator.scan();
  auto& reused =
      obs::Registry::global().counter("scan_paths_reused_total", "");
  auto& avoided =
      obs::Registry::global().counter("scan_renders_avoided_total", "");
  const std::uint64_t reused_before = reused.value();
  const std::uint64_t avoided_before = avoided.value();
  const auto warm = validator.scan();
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(warm[i].path, cold[i].path);
    EXPECT_EQ(warm[i].cls, cold[i].cls) << warm[i].path;
    EXPECT_EQ(warm[i].degraded, cold[i].degraded) << warm[i].path;
  }
  EXPECT_GT(reused.value(), reused_before);
  EXPECT_GT(avoided.value(), avoided_before);
}

TEST(Incremental, PerturbedWorldRescanKeepsClassifications) {
  cloud::Server server("moved-host", cloud::local_testbed(), 77, 40 * kDay);
  CrossValidator validator(server);
  const auto cold = validator.scan();
  server.step(kSecond);  // the generation moves: outright reuse is off
  auto& reused =
      obs::Registry::global().counter("scan_paths_reused_total", "");
  const std::uint64_t reused_before = reused.value();
  const auto warm = validator.scan();
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(warm[i].path, cold[i].path);
    EXPECT_EQ(warm[i].cls, cold[i].cls) << warm[i].path;
  }
  // Static pairs (e.g. the namespaced hostname) still reuse their verdict
  // through the digest match even though everything re-rendered.
  EXPECT_GT(reused.value(), reused_before);
}

TEST(Incremental, DisabledIncrementalScansStayCold) {
  cloud::Server server("cold-host", cloud::local_testbed(), 77, 40 * kDay);
  ScanOptions options;
  options.incremental = false;
  CrossValidator validator(server, options);
  const auto first = validator.scan();
  auto& reused =
      obs::Registry::global().counter("scan_paths_reused_total", "");
  auto& avoided =
      obs::Registry::global().counter("scan_renders_avoided_total", "");
  const std::uint64_t reused_before = reused.value();
  const std::uint64_t avoided_before = avoided.value();
  const auto second = validator.scan();
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].cls, first[i].cls) << second[i].path;
  }
  EXPECT_EQ(reused.value(), reused_before);    // no reuse when disabled
  EXPECT_EQ(avoided.value(), avoided_before);  // every render ran again
}

// The reuse key (host state generation, render epoch, probe fingerprint)
// is the only thing that lets a scan skip renders, so it must be complete:
// across any mutation that leaves it unchanged, every cache-eligible path
// renders the same bytes from the host view and from the probe's view.
TEST(Incremental, UnchangedReuseKeyMeansUnchangedBytes) {
  constexpr int kMutations = 100;
  // In-place cgroup writes are weighted up: they are the mutations that can
  // leave the key unchanged while touching state a restricted render reads.
  enum Kind {
    kStep, kAdvance, kSpawn, kKill, kCreate, kDestroy, kProbeCgroup,
    kOtherCgroup, kPolicy, kPowerNs, kFaultPlan
  };
  constexpr Kind kKinds[] = {kStep,         kAdvance,     kSpawn,
                             kKill,         kCreate,      kDestroy,
                             kProbeCgroup,  kProbeCgroup, kProbeCgroup,
                             kOtherCgroup,  kOtherCgroup, kPolicy,
                             kPowerNs,      kFaultPlan};
  const defense::PowerModel model = defense::train_default_model(7).value();
  faults::FaultPlan plan;
  faults::FaultRule never;
  never.path_glob = "/proc/s*";  // a rate-0 rule still covers its paths
  never.rate = 0.0;
  plan.rules.push_back(never);
  const faults::FaultInjector rate_zero(plan);

  for (const auto& profile :
       {cloud::local_testbed(), cloud::cc1(), cloud::cc4()}) {
    SCOPED_TRACE(profile.name);
    cloud::Server server("key-host", profile, 41, kDay);
    container::ContainerRuntime& runtime = server.runtime();
    defense::PowerNamespace power_ns(runtime, model);
    container::ContainerConfig config;
    config.num_cpus = 2;
    config.memory_limit_bytes = 2ULL << 30;
    const auto probe = runtime.create(config);
    std::vector<std::shared_ptr<container::Container>> others;
    std::vector<std::pair<container::Container*, kernel::HostPid>> spawned;
    const std::vector<std::string> paths = server.fs().list_paths();
    Rng rng(fnv1a64(profile.name));
    fs::MaskingPolicy restricting;
    for (const char* path :
         {"/proc/meminfo", "/proc/uptime", "/proc/stat", "/proc/loadavg",
          "/sys/fs/cgroup/net_prio/net_prio.ifpriomap"}) {
      restricting.add_rule(path, fs::MaskAction::kRestrict);
    }

    const auto key = [&] {
      return std::tuple(
          server.host().state_generation(), server.fs().render_epoch(),
          fs::PseudoFs::viewer_state_fingerprint(*probe->init_task()));
    };
    struct Render {
      bool eligible = false;
      StatusCode host_code = StatusCode::kOk;
      std::string host;
      StatusCode probe_code = StatusCode::kOk;
      std::string probe;
    };
    const auto render_all = [&] {
      std::vector<Render> renders(paths.size());
      for (std::size_t i = 0; i < paths.size(); ++i) {
        Render& r = renders[i];
        r.eligible = server.fs().cache_eligible(paths[i]);
        if (!r.eligible) continue;
        r.host_code = server.fs().read_into(paths[i], {}, r.host);
        r.probe_code = probe->read_file_into(paths[i], r.probe);
      }
      return renders;
    };
    const auto pick_other = [&]() -> container::Container& {
      return *others[rng.uniform_u64(0, others.size() - 1)];
    };
    const auto write_cgroup = [&](kernel::Cgroup& cg) {
      switch (rng.uniform_u64(0, 4)) {
        case 0:  // may rewrite the current value, leaving the key as is
          cg.memory.limit_bytes = rng.uniform_u64(1, 3) << 30;
          break;
        case 1:
          cg.memory.usage_bytes = rng.uniform_u64(1, 512) << 20;
          break;
        case 2:
          cg.cpu_quota = rng.uniform(0.1, 1.0);
          break;
        case 3:
          cg.cpuset.cpus = {static_cast<int>(rng.uniform_u64(0, 1))};
          break;
        default:
          cg.net_prio.ifpriomap["eth0"] =
              static_cast<int>(rng.uniform_u64(0, 3));
          break;
      }
    };
    const auto random_policy = [&] {
      switch (rng.uniform_u64(0, 2)) {
        case 0:
          return fs::MaskingPolicy::docker_default();
        case 1:
          return profile.policy;
        default:
          return restricting;
      }
    };
    runtime.set_policy(restricting);  // start with tenant-scoped views

    int unchanged = 0;
    auto before_key = key();
    auto before = render_all();
    for (int m = 0; m < kMutations; ++m) {
      const Kind kind = kKinds[rng.uniform_u64(0, std::size(kKinds) - 1)];
      switch (kind) {
        case kStep:
          server.step(static_cast<SimDuration>(rng.uniform_u64(1, 20)) *
                      100 * kMillisecond);
          break;
        case kAdvance:
          server.host().advance(
              static_cast<SimDuration>(rng.uniform_u64(1, 5)) * 100 *
              kMillisecond);
          break;
        case kSpawn: {
          container::Container& target =
              others.empty() || rng.uniform_u64(0, 1) == 0 ? *probe
                                                           : pick_other();
          kernel::TaskBehavior behavior;
          behavior.duty_cycle = rng.uniform(0.1, 1.0);
          spawned.emplace_back(&target,
                               target.run("worker", behavior)->host_pid);
          break;
        }
        case kKill:
          if (!spawned.empty()) {
            spawned.front().first->kill(spawned.front().second);
            spawned.erase(spawned.begin());
          }
          break;
        case kCreate:
          others.push_back(runtime.create(config));
          break;
        case kDestroy:
          if (!others.empty()) {
            container::Container* victim = &pick_other();
            std::erase_if(spawned, [&](const auto& task) {
              return task.first == victim;
            });
            runtime.destroy(victim->id());
            std::erase_if(others, [&](const auto& instance) {
              return instance.get() == victim;
            });
          }
          break;
        case kProbeCgroup:
          write_cgroup(*probe->cgroup());
          break;
        case kOtherCgroup:
          if (!others.empty()) write_cgroup(*pick_other().cgroup());
          break;
        case kPolicy:
          runtime.set_policy(random_policy());
          break;
        case kPowerNs:
          if (power_ns.enabled()) {
            power_ns.disable();
          } else {
            power_ns.enable();
          }
          break;
        case kFaultPlan:
          server.fs().set_fault_injector(
              server.fs().fault_injector() == nullptr ? &rate_zero : nullptr);
          break;
      }
      const auto after_key = key();
      auto after = render_all();
      if (after_key == before_key) {
        ++unchanged;
        for (std::size_t i = 0; i < paths.size(); ++i) {
          if (!before[i].eligible || !after[i].eligible) continue;
          SCOPED_TRACE("mutation " + std::to_string(m) + " (kind " +
                       std::to_string(kind) + "): " + paths[i]);
          EXPECT_EQ(after[i].host_code, before[i].host_code);
          EXPECT_EQ(after[i].host, before[i].host);
          EXPECT_EQ(after[i].probe_code, before[i].probe_code);
          EXPECT_EQ(after[i].probe, before[i].probe);
        }
      }
      before_key = after_key;
      before = std::move(after);
    }
    EXPECT_GE(unchanged, 20) << "too few unchanged-key mutations to test";
  }
}

TEST(Detector, LeakClassNames) {
  EXPECT_EQ(to_string(LeakClass::kLeaking), "LEAKING");
  EXPECT_EQ(to_string(LeakClass::kPartial), "PARTIAL");
  EXPECT_EQ(to_string(LeakClass::kNamespaced), "NAMESPACED");
  EXPECT_EQ(to_string(LeakClass::kMasked), "MASKED");
  EXPECT_EQ(to_string(LeakClass::kAbsent), "ABSENT");
}

}  // namespace
}  // namespace cleaks::leakage
