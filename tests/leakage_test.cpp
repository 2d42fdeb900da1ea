#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "leakage/channels.h"
#include "leakage/detector.h"
#include "leakage/inspector.h"
#include "obs/metrics.h"

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

// ---------- repeat scans ----------

// A scan carries nothing over from the previous one but the probe
// container: the second of two back-to-back scans on an idle host runs the
// same protocol, with the same perturbation steps, to the same findings.
TEST(Detector, RepeatScanRunsTheFullProtocol) {
  cloud::Server server("repeat-host", cloud::local_testbed(), 77, 40 * kDay);
  CrossValidator validator(server);
  auto& reused =
      obs::Registry::global().counter("scan_paths_reused_total", "");
  const std::uint64_t reused_before = reused.value();
  const SimTime t0 = server.host().now();
  const auto first = validator.scan();
  const SimTime t1 = server.host().now();
  const auto second = validator.scan();
  const SimTime t2 = server.host().now();
  EXPECT_GT(t1 - t0, 0u);  // Phase B stepped the host
  EXPECT_EQ(t2 - t1, t1 - t0);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].path, first[i].path);
    EXPECT_EQ(second[i].cls, first[i].cls) << second[i].path;
    EXPECT_EQ(second[i].degraded, first[i].degraded) << second[i].path;
  }
  EXPECT_EQ(reused.value(), reused_before);
}

TEST(Incremental, PerturbedWorldRescanKeepsClassifications) {
  cloud::Server server("moved-host", cloud::local_testbed(), 77, 40 * kDay);
  CrossValidator validator(server);
  const auto cold = validator.scan();
  server.step(kSecond);
  const auto warm = validator.scan();
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(warm[i].path, cold[i].path);
    EXPECT_EQ(warm[i].cls, cold[i].cls) << warm[i].path;
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
