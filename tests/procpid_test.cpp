// Tests for the per-process /proc/<pid>/ subtree — the properly
// PID-namespaced part of procfs, in contrast with the Table I channels:
// a container resolves pids in its own namespace and can never see
// another tenant's (or the host's) processes through it.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "containerleaks.h"

namespace cleaks::fs {
namespace {

struct Fixture {
  Fixture()
      : host("pid-host", hw::testbed_i7_6700(), 66),
        filesystem(host),
        runtime(host, filesystem) {
    host.set_tick_duration(100 * kMillisecond);
    tenant = runtime.create({});
    neighbour = runtime.create({});
  }

  kernel::Host host;
  PseudoFs filesystem;
  container::ContainerRuntime runtime;
  std::shared_ptr<container::Container> tenant, neighbour;
};

TEST(ProcPid, HostResolvesHostPids) {
  Fixture fixture;
  auto task = fixture.host.spawn_task({.comm = "hosttask"});
  ViewContext host_ctx;
  const auto status = fixture.filesystem.read(
      strformat("/proc/%d/status", task->host_pid), host_ctx);
  ASSERT_TRUE(status.is_ok());
  EXPECT_TRUE(contains(status.value(), "Name:\thosttask"));
  EXPECT_TRUE(contains(status.value(),
                       strformat("Pid:\t%d", task->host_pid)));
}

TEST(ProcPid, ContainerInitIsPidOne) {
  Fixture fixture;
  const auto status = fixture.tenant->read_file("/proc/1/status");
  ASSERT_TRUE(status.is_ok());
  EXPECT_TRUE(contains(status.value(), "Name:\tsh"));
  EXPECT_TRUE(contains(status.value(), "Pid:\t1"));
}

TEST(ProcPid, ContainerResolvesItsOwnNamespacePids) {
  Fixture fixture;
  auto task = fixture.tenant->run("worker", {});
  const auto status = fixture.tenant->read_file(
      strformat("/proc/%d/status", task->ns_pid));
  ASSERT_TRUE(status.is_ok());
  EXPECT_TRUE(contains(status.value(), "Name:\tworker"));
  // The view shows the namespace pid, never the host pid.
  EXPECT_TRUE(contains(status.value(), strformat("Pid:\t%d", task->ns_pid)));
  EXPECT_FALSE(
      contains(status.value(), strformat("Pid:\t%d", task->host_pid)));
}

TEST(ProcPid, HostPidsInvisibleInsideContainer) {
  Fixture fixture;
  auto host_task = fixture.host.spawn_task({.comm = "secret"});
  const auto view = fixture.tenant->read_file(
      strformat("/proc/%d/status", host_task->host_pid));
  EXPECT_EQ(view.code(), StatusCode::kNotFound);
}

TEST(ProcPid, NeighbourTasksInvisible) {
  Fixture fixture;
  auto neighbour_task = fixture.neighbour->run("theirjob", {});
  // Same ns pid number may exist in the tenant's namespace (its init also
  // has low pids), but the *neighbour's* task must never resolve.
  const auto view = fixture.tenant->read_file(
      strformat("/proc/%d/cmdline", neighbour_task->ns_pid));
  if (view.is_ok()) {
    EXPECT_FALSE(contains(view.value(), "theirjob"));
  } else {
    EXPECT_EQ(view.code(), StatusCode::kNotFound);
  }
}

TEST(ProcPid, CmdlineAndSchedRender) {
  Fixture fixture;
  kernel::TaskBehavior busy;
  busy.duty_cycle = 1.0;
  auto task = fixture.tenant->run("cruncher", busy);
  fixture.host.advance(2 * kSecond);
  const auto cmdline = fixture.tenant->read_file(
      strformat("/proc/%d/cmdline", task->ns_pid));
  ASSERT_TRUE(cmdline.is_ok());
  EXPECT_EQ(cmdline.value(), "cruncher\n");
  const auto sched = fixture.tenant->read_file(
      strformat("/proc/%d/sched", task->ns_pid));
  ASSERT_TRUE(sched.is_ok());
  EXPECT_TRUE(contains(sched.value(), "se.sum_exec_runtime"));
  EXPECT_GT(parse_first_double(split_lines(sched.value())[2]), 100.0);
}

TEST(ProcPid, StatShowsRunState) {
  Fixture fixture;
  kernel::TaskBehavior busy;
  busy.duty_cycle = 1.0;
  auto runner = fixture.tenant->run("runner", busy);
  const auto stat = fixture.tenant->read_file(
      strformat("/proc/%d/stat", runner->ns_pid));
  ASSERT_TRUE(stat.is_ok());
  EXPECT_TRUE(contains(stat.value(), "(runner) R"));
}

TEST(ProcPid, ListPathsIncludesOnlyViewersPids) {
  Fixture fixture;
  fixture.tenant->run("mine", {});
  fixture.neighbour->run("theirs", {});
  ViewContext tenant_ctx;
  tenant_ctx.viewer = fixture.tenant->init_task();
  const auto paths = fixture.filesystem.list_paths(tenant_ctx);
  int pid_dirs = 0;
  for (const auto& path : paths) {
    if (starts_with(path, "/proc/1/")) ++pid_dirs;
    // Host daemons have pids in the 300s; none may appear.
    EXPECT_FALSE(starts_with(path, "/proc/300/")) << path;
  }
  EXPECT_EQ(pid_dirs, 4);  // status, stat, cmdline, sched for init
}

TEST(ProcPid, HostListsEveryTask) {
  Fixture fixture;
  ViewContext host_ctx;
  const auto paths = fixture.filesystem.list_paths(host_ctx);
  std::size_t per_pid = 0;
  for (const auto& path : paths) {
    if (contains(path, "/cmdline")) ++per_pid;
  }
  EXPECT_EQ(per_pid, fixture.host.tasks().size());
}

TEST(ProcPid, UnknownLeafFallsThroughToNotFound) {
  Fixture fixture;
  EXPECT_EQ(fixture.tenant->read_file("/proc/1/environ").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(fixture.tenant->read_file("/proc/99999/status").code(),
            StatusCode::kNotFound);
}

// `a` + `b` for non-negative decimal strings of any length.
std::string add_decimal(const std::string& a, const std::string& b) {
  std::string sum;
  int carry = 0;
  for (std::size_t i = 0; i < std::max(a.size(), b.size()) || carry; ++i) {
    const int da = i < a.size() ? a[a.size() - 1 - i] - '0' : 0;
    const int db = i < b.size() ? b[b.size() - 1 - i] - '0' : 0;
    sum.insert(sum.begin(), static_cast<char>('0' + (da + db + carry) % 10));
    carry = (da + db + carry) / 10;
  }
  return sum;
}

// Linux's name_to_int: a pid directory name is the canonical decimal of a
// visible pid, so every spelling that aliases a listed pid must miss.
TEST(ProcPid, ReadsExactlyTheListedPaths) {
  Fixture fixture;
  fixture.tenant->run("worker", {});
  ViewContext host_ctx;
  ViewContext tenant_ctx;
  tenant_ctx.viewer = fixture.tenant->init_task();
  for (const ViewContext& ctx : {host_ctx, tenant_ctx}) {
    const auto listed = fixture.filesystem.list_paths(ctx);
    const std::set<std::string> listed_set(listed.begin(), listed.end());
    std::size_t pid_paths = 0;
    for (const auto& path : listed) {
      EXPECT_NE(fixture.filesystem.read(path, ctx).code(),
                StatusCode::kNotFound)
          << path;
      if (!starts_with(path, "/proc/")) continue;
      const std::string tail = path.substr(6);
      const std::size_t slash = tail.find('/');
      const std::string pid = tail.substr(0, slash);
      if (slash == std::string::npos ||
          pid.find_first_not_of("0123456789") != std::string::npos) {
        continue;
      }
      ++pid_paths;
      const std::string leaf = tail.substr(slash);
      std::vector<std::string> aliases = {
          "/proc/0" + pid + leaf,
          "/proc/" + add_decimal(pid, "4294967296") + leaf,
          "/proc/" + add_decimal(pid, "18446744073709551616") + leaf,
          path + "/x",
      };
      for (std::size_t i = 0; i < pid.size(); ++i) {
        aliases.push_back("/proc/" + pid.substr(0, i) + pid.substr(i + 1) +
                          leaf);
      }
      for (const auto& alias : aliases) {
        if (listed_set.count(alias) != 0) continue;
        EXPECT_EQ(fixture.filesystem.read(alias, ctx).code(),
                  StatusCode::kNotFound)
            << alias;
      }
    }
    EXPECT_GT(pid_paths, 0u);
  }
}

TEST(ProcPid, MaskingPolicyStillApplies) {
  kernel::Host host("masked", hw::testbed_i7_6700(), 67);
  PseudoFs filesystem(host);
  MaskingPolicy policy;
  policy.add_rule("/proc/*/sched", MaskAction::kDeny);
  container::ContainerRuntime runtime(host, filesystem, policy);
  auto instance = runtime.create({});
  EXPECT_EQ(instance->read_file("/proc/1/sched").code(),
            StatusCode::kPermissionDenied);
  EXPECT_TRUE(instance->read_file("/proc/1/status").is_ok());
}

}  // namespace
}  // namespace cleaks::fs
