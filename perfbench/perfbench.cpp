// cleaks_perfbench: the repository benchmark's driver binary.
//
// Runs one workload as a closed loop (one driver thread issues each public
// simulator call after the previous one returns) and prints one JSON
// object as its last stdout line: end-to-end metrics, per-layer metrics
// (traced runs), reference digests and run facts. perfbench/run.py builds
// this binary, runs it and checks the digests; see perfbench/README.md for
// the workloads and the metric definitions.
//
//   cleaks_perfbench --workload attack_window|coresidence_hunt|fleet_churn
//                    [--seed N] [--seconds S] [--trace 0|1] [--lanes L]
//                    [--small] [--setups R] [--spans PATH]
//
// Host time is steady_clock; simulated time only advances the model.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cloud/datacenter.h"
#include "cloud/provider.h"
#include "coresidence/detector.h"
#include "leakage/channels.h"
#include "leakage/detector.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "sim/scenarios.h"
#include "spans.h"

using namespace cleaks;
using perfbench::now_ns;
using perfbench::ScopedSpan;
using perfbench::SpanName;
using perfbench::SpanRecorder;

namespace {

// ---------------------------------------------------------------- inputs

/// Seed of every run's reference pass: perfbench/reference.json holds its
/// digests as recorded on the seed tree.
constexpr std::uint64_t kReferenceSeed = 1;

/// splitmix64: the benchmark derives every input from --seed with its own
/// generator, so a change to the simulator's Rng cannot change the inputs.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return mix(state_++, 0x5eed); }
  /// Uniform in [lo, hi].
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

/// FNV-1a over the outputs a reference pass compares. Kept here rather
/// than borrowed from the simulator so the ruler cannot move with it.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int lanes = 0;
  bool small = false;
  int setups = 5;
  std::string spans_path;
};

[[noreturn]] void fail(const char* why) {
  std::fprintf(stderr, "cleaks_perfbench: %s\n", why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) fail(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--lanes") {
      o.lanes = std::atoi(value().c_str());
    } else if (arg == "--small") {
      o.small = true;
    } else if (arg == "--setups") {
      o.setups = std::max(1, std::atoi(value().c_str()));
    } else if (arg == "--spans") {
      o.spans_path = value();
    } else {
      fail(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) fail("--workload is required");
  if (!(o.seconds > 0.0)) fail("--seconds must be positive");
  return o;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------- probes

double resident_kb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// {stolen, total} CPU ticks of this machine so far, summed over its CPUs
/// (the first line of /proc/stat); {0, 0} when unreadable.
std::pair<double, double> cpu_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got != 8) return {0.0, 0.0};
  double total = 0.0;
  for (const unsigned long long x : v) total += static_cast<double>(x);
  return {static_cast<double>(v[7]), total};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Scope::kSim counters (plus the pool's lane-chunk tally) read from the
/// global registry; absent names read as 0.
std::map<std::string, std::uint64_t> read_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& m : obs::Registry::global().snapshot().metrics) {
    if (m.kind == obs::MetricValue::Kind::kCounter) out[m.name] = m.counter;
  }
  return out;
}

struct CounterDelta {
  std::map<std::string, std::uint64_t> before;
  std::map<std::string, std::uint64_t> after;
  [[nodiscard]] double operator()(const std::string& name) const {
    auto get = [&](const std::map<std::string, std::uint64_t>& m) {
      const auto it = m.find(name);
      return it == m.end() ? 0ULL : it->second;
    };
    return static_cast<double>(get(after) - get(before));
  }
};

/// Nearest-rank quantile (q in (0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------- result

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  ///< why the value is 0 / how it was measured
};

using Facts = std::vector<std::pair<std::string, std::string>>;

struct Run {
  // Closed-loop measured phase.
  std::vector<double> op_us;  ///< host µs per op
  std::uint64_t ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time (all threads) of the phase
  double steal_frac = 0.0;  ///< share of the machine's CPU time the host stole
  /// Ops per host second of each whole second of the phase, in order.
  std::vector<double> per_second;
  std::vector<double> setup_s;  ///< one per world build
  // Traced runs: untraced vs traced blocks of the same phase.
  double mode_s[2] = {0.0, 0.0};
  std::uint64_t mode_ops[2] = {0, 0};
  std::uint64_t traced_active_server_steps = 0;
  double active_sum = 0.0;  ///< sum over stepped calls of active servers
  std::uint64_t active_samples = 0;
  CounterDelta counters;
  // World-build probe.
  double rss_growth_kb = 0.0;
  int servers = 0;
  double probe_build_s = 0.0;  ///< attack_window's standalone Datacenter
  // Warm-scan reuse and the reference pass's hunt effort
  // (coresidence_hunt).
  double warm_paths = 0.0;
  double warm_reused = 0.0;
  std::uint64_t check_launches = 0;
  std::uint64_t check_hits = 0;
  double events_per_step = 0.0;  ///< attack_window measured phase
  std::vector<std::string> invariant_errors;
  /// Reference digests from the check pass (compared with reference.json).
  Facts check;
  /// Counts of the measured phase (vary with its length; reported only).
  Facts measured;
};

struct Context {
  Options opt;
  int lanes = 1;
  SpanRecorder rec;
  Run run;
  obs::Counter* active_steps = nullptr;  ///< engine_active_server_steps_total
  std::uint64_t op_id = 0;
};

/// Drive `unit` (returns ops completed) until `max_ops` ops are done or,
/// with `max_ops` 0, until --seconds elapse. Traced runs alternate 250 ms
/// blocks with span recording off and on, so the tracing overhead is the
/// throughput gap between the two block kinds and drift along the run hits
/// both alike.
template <class Unit>
void measure(Context& ctx, Unit&& unit, std::uint64_t max_ops = 0) {
  Run& r = ctx.run;
  const std::int64_t block_ns = 250'000'000;
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline =
      t0 + static_cast<std::int64_t>(ctx.opt.seconds * 1e9);
  std::int64_t t = t0;
  std::int64_t block_end = t0 + block_ns;
  int traced = 0;
  std::uint64_t active_mark = ctx.active_steps->value();
  ctx.rec.set_enabled(false);
  r.counters.before = read_counters();
  const double cpu0 = process_cpu_s();
  const auto ticks0 = cpu_ticks();
  std::int64_t second_start = t0;
  std::uint64_t second_ops = 0;
  while (max_ops > 0 ? r.ops < max_ops : t < deadline) {
    const std::uint64_t n = unit();
    const std::int64_t now = now_ns();
    r.mode_s[traced] += static_cast<double>(now - t) * 1e-9;
    r.mode_ops[traced] += n;
    r.ops += n;
    t = now;
    second_ops += n;
    if (t - second_start >= 1'000'000'000) {
      r.per_second.push_back(static_cast<double>(second_ops) * 1e9 /
                             static_cast<double>(t - second_start));
      second_start = t;
      second_ops = 0;
    }
    if (ctx.opt.trace && t >= block_end) {
      const std::uint64_t active = ctx.active_steps->value();
      if (traced == 1) r.traced_active_server_steps += active - active_mark;
      active_mark = active;
      traced ^= 1;
      ctx.rec.set_enabled(traced == 1);
      block_end = t + block_ns;
    }
  }
  if (traced == 1) {
    r.traced_active_server_steps += ctx.active_steps->value() - active_mark;
  }
  ctx.rec.set_enabled(false);
  r.counters.after = read_counters();
  r.wall_s = static_cast<double>(t - t0) * 1e-9;
  r.cpu_s = process_cpu_s() - cpu0;
  const auto ticks1 = cpu_ticks();
  const double ticks = ticks1.second - ticks0.second;
  r.steal_frac = ticks > 0.0 ? (ticks1.first - ticks0.first) / ticks : 0.0;
}

/// Drop anything a finished world left on the process-global event bus,
/// so the next world starts from the same state as a fresh process.
void reset_event_bus() {
  obs::EventBus::global().set_enabled(false);
  (void)obs::EventBus::global().drain();
}

// ---------------------------------------------------------------- set-up

/// One timed world build.
struct BuildSample {
  double seconds = 0.0;
  double rss_growth_kb = 0.0;  ///< resident-set growth over the Datacenter ctor
};

/// Run `build` (returns a world and its BuildSample) in a forked child and
/// return the child's sample. The child exits without destroying the
/// world; the kernel reclaims it.
template <class Build>
BuildSample build_in_child(Build& build) {
  int fds[2];
  if (pipe(fds) != 0) fail("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) fail("fork failed");
  if (pid == 0) {
    close(fds[0]);
    const auto built = build();
    const bool sent = write(fds[1], &built.sample, sizeof built.sample) ==
                      static_cast<ssize_t>(sizeof built.sample);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  BuildSample sample;
  ssize_t got = 0;
  do {
    got = read(fds[0], &sample, sizeof sample);
  } while (got < 0 && errno == EINTR);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != static_cast<ssize_t>(sizeof sample) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    fail("a set-up child failed");
  }
  return sample;
}

/// Time `setups` builds of the workload's world and return the last.
/// Every build is the first of its process (setups - 1 forked children,
/// one after another, then this one), so each pays the page faults of a
/// fresh workload start: a rebuild in one process would reuse the heap
/// pages its predecessor freed. Call before this process starts any
/// thread; a forked child inherits none of them.
template <class Build>
auto timed_builds(Run& r, int setups, Build build) {
  for (int i = 1; i < setups; ++i) {
    r.setup_s.push_back(build_in_child(build).seconds);
  }
  auto built = build();
  r.setup_s.push_back(built.sample.seconds);
  r.rss_growth_kb = built.sample.rss_growth_kb;
  return built;
}

// ============================================================ attack_window

// Fig 3's control schedule, scaled down: monitor, then a coordinated
// window, repeated (fig3 runs 7,200 s monitor + 3,000 s coordinated).
constexpr int kMonitorSteps = 720;
constexpr int kCoordinatedSteps = 300;
constexpr int kCycleSteps = kMonitorSteps + kCoordinatedSteps;
/// The measured phase is a fixed number of steps, 1.5 schedule cycles per
/// requested second (about the seed tree's rate), not a host-time budget:
/// the diurnal load makes step cost vary over the simulated day, so every
/// run must cover the same stretch of it whatever the host's speed.
constexpr double kAttackStepsPerSecond = 1.5 * kCycleSteps;

sim::ScenarioSpec attack_spec(std::uint64_t seed, int lanes, bool small) {
  sim::ScenarioSpec spec = sim::fig3_fleet(attack::StrategyKind::kSynergistic);
  spec.name = "perfbench-attack-window";
  spec.datacenter.num_racks = small ? 2 : 8;
  spec.datacenter.servers_per_rack = 8;
  spec.datacenter.seed = mix(seed, 1) % 1000000007ULL;
  spec.datacenter.num_threads = lanes;
  if (small) spec.warmup->until = 7 * kHour;
  return spec;
}

sim::FleetSpec::Control attack_control(std::uint64_t step) {
  return step % kCycleSteps < kMonitorSteps
             ? sim::FleetSpec::Control::kMonitor
             : sim::FleetSpec::Control::kCoordinated;
}

struct AttackBuilt {
  std::unique_ptr<sim::SimEngine> engine;
  BuildSample sample;
};

AttackBuilt build_attack(const sim::ScenarioSpec& spec) {
  AttackBuilt b;
  const std::int64_t t0 = now_ns();
  b.engine = std::make_unique<sim::SimEngine>(spec);
  b.engine->enable_event_stream();
  b.engine->reset_measurement();
  b.sample.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return b;
}

void attack_step(Context& ctx, sim::SimEngine& engine, std::uint64_t step) {
  engine.set_fleet_control(attack_control(step));
  ScopedSpan span(ctx.rec, SpanName::kEngineStep, ctx.op_id);
  engine.step(kSecond);
}

void run_attack_window(Context& ctx) {
  Run& r = ctx.run;
  const sim::ScenarioSpec spec = attack_spec(ctx.opt.seed, ctx.lanes,
                                             ctx.opt.small);
  r.servers = spec.datacenter.num_racks * spec.datacenter.servers_per_rack;
  std::unique_ptr<sim::SimEngine> engine =
      timed_builds(r, ctx.opt.setups, [&spec] { return build_attack(spec); })
          .engine;
  if (ctx.opt.trace) {
    // The engine builds its Datacenter internally; time the same
    // constructor standalone. The engine stays alive, so the probe's
    // pages are fresh and its RSS growth is real.
    const double rss0 = resident_kb();
    const std::int64_t t0 = now_ns();
    auto dc = std::make_unique<cloud::Datacenter>(spec.datacenter);
    r.probe_build_s = static_cast<double>(now_ns() - t0) * 1e-9;
    r.rss_growth_kb = resident_kb() - rss0;
  }

  const std::uint64_t drained0 = engine->events_drained();
  const auto steps = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::llround(ctx.opt.seconds * kAttackStepsPerSecond)));
  std::uint64_t step = 0;
  cloud::Datacenter& dc = engine->datacenter();
  measure(
      ctx,
      [&]() -> std::uint64_t {
        ctx.op_id = step;
        const std::int64_t t0 = now_ns();
        {
          ScopedSpan op(ctx.rec, SpanName::kOp, ctx.op_id);
          attack_step(ctx, *engine, step);
        }
        r.op_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
        if (ctx.opt.trace) {
          r.active_sum += dc.num_servers() - dc.sleeping_servers();
          ++r.active_samples;
        }
        ++step;
        ++r.attempted;
        return 1;
      },
      steps);
  const double peak = engine->result().peak_total_w;
  if (!std::isfinite(peak) || peak <= 0.0) {
    r.invariant_errors.push_back("peak_total_w not positive and finite");
  }
  if (r.counters("events_dropped_total") != 0.0) {
    r.invariant_errors.push_back("event bus dropped events");
  }
  r.measured.emplace_back("steps", std::to_string(step));
  r.measured.emplace_back("crest_triggers", std::to_string(engine->crest_spikes()));
  r.events_per_step =
      static_cast<double>(engine->events_drained() - drained0) /
      static_cast<double>(std::max<std::uint64_t>(step, 1));
  engine.reset();
  reset_event_bus();

  // Reference pass: the check seed, five schedule cycles (long enough for
  // the crest budget of two triggers to be spent).
  const std::uint64_t check_steps = ctx.opt.small ? 400 : 5 * kCycleSteps;
  auto check = build_attack(attack_spec(kReferenceSeed, ctx.lanes,
                                        ctx.opt.small)).engine;
  for (std::uint64_t s = 0; s < check_steps; ++s) {
    check->set_fleet_control(attack_control(s));
    check->step(kSecond);
  }
  r.check.emplace_back("event_digest", hex64(check->event_stream_digest()));
  r.check.emplace_back("peak_total_w", hexfloat(check->result().peak_total_w));
  r.check.emplace_back("crest_triggers", std::to_string(check->crest_spikes()));
  check.reset();
  reset_event_bus();
}

// ============================================================ cloud worlds

/// A context for a workload's reference pass: same lanes, its own
/// (untraced) tallies.
Context reference_context(const Context& ctx) {
  Context check;
  check.opt = ctx.opt;
  check.opt.trace = false;
  check.lanes = ctx.lanes;
  check.active_steps = ctx.active_steps;
  return check;
}

struct CloudWorld {
  std::unique_ptr<cloud::Datacenter> dc;
  std::unique_ptr<cloud::CloudProvider> provider;  ///< points into dc
};

struct CloudBuilt {
  CloudWorld world;
  BuildSample sample;
};

cloud::DatacenterConfig facility(std::uint64_t seed, int lanes, bool small,
                                 bool benign) {
  cloud::DatacenterConfig config;
  config.num_racks = small ? 4 : 32;
  config.servers_per_rack = small ? 8 : 32;
  config.profile = cloud::cc1();
  config.benign_load = benign;
  config.benign_load_servers = benign ? (small ? 4 : 64) : -1;
  config.seed = mix(seed, 11) % 1000000007ULL;
  config.num_threads = lanes;
  return config;
}

/// Datacenter + CloudProvider construction, timed.
CloudBuilt build_cloud(const cloud::DatacenterConfig& config,
                       std::uint64_t provider_seed) {
  CloudBuilt b;
  const double rss0 = resident_kb();
  const std::int64_t t0 = now_ns();
  b.world.dc = std::make_unique<cloud::Datacenter>(config);
  b.sample.rss_growth_kb = resident_kb() - rss0;
  b.world.provider = std::make_unique<cloud::CloudProvider>(
      *b.world.dc, provider_seed, cloud::BillingRates{},
      cloud::PlacementPolicy::kRandom, 8);
  b.sample.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return b;
}

/// One provider step, spanned, with the active-server tally.
void provider_step(Context& ctx, CloudWorld& world,
                   SimDuration dt = kSecond) {
  {
    ScopedSpan span(ctx.rec, SpanName::kProviderStep, ctx.op_id);
    world.provider->step(dt);
  }
  if (ctx.opt.trace) {
    ctx.run.active_sum +=
        world.dc->num_servers() - world.dc->sleeping_servers();
    ++ctx.run.active_samples;
  }
}

// ========================================================= coresidence_hunt

constexpr int kGroupSize = 3;           ///< anchor + two co-resident hits
/// Gives up a round that cannot finish (a verifier that never reports a
/// hit), so a broken build fails its reference check instead of hanging.
/// Each hit needs about num_servers launches; 20,000 exceeds 1,024 x 19.
constexpr int kMaxLaunchesPerRound = 20000;

/// §IV-C hunt: launch -> settle -> verify -> terminate-on-miss, driven
/// call by call; each hit reads the Table I channel files; each finished
/// round cold-scans, steps, warm-scans and tears down.
class Hunt {
 public:
  Hunt(Context& ctx, CloudWorld& world, std::vector<std::string> paths)
      : ctx_(ctx), world_(world), paths_(std::move(paths)) {
    env_.advance = [this](SimDuration dt) { provider_step(ctx_, world_, dt); };
  }
  Hunt(const Hunt&) = delete;  // env_ captures this
  Hunt& operator=(const Hunt&) = delete;

  /// One candidate cycle (the first of a round also launches the anchor;
  /// the last also runs the round's scans and teardown, outside the op's
  /// latency). Returns 1.
  std::uint64_t cycle() {
    Run& r = ctx_.run;
    ctx_.op_id = cycles_++;
    bool failed = false;
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan op(ctx_.rec, SpanName::kOp, ctx_.op_id);
      if (group_.empty()) failed |= !launch_into_group();
      std::shared_ptr<cloud::TenantInstance> candidate;
      if (!failed) candidate = launch();
      if (candidate == nullptr) {
        failed = true;
      } else {
        provider_step(ctx_, world_);  // instance boot settling
        failed |= !verify(candidate);
      }
    }
    r.op_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    ++r.attempted;
    if (failed) ++r.failed;
    if (static_cast<int>(group_.size()) >= kGroupSize ||
        round_launches_ >= kMaxLaunchesPerRound) {
      finish_round();
    }
    return 1;
  }

  /// Terminate whatever an unfinished round holds (after the deadline).
  void abandon_round() {
    for (const auto& inst : group_) world_.provider->terminate(inst->instance_id);
    group_.clear();
  }

  [[nodiscard]] std::uint64_t findings_digest() const { return digest_.h; }
  [[nodiscard]] std::uint64_t launches() const { return launches_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] int rounds() const { return rounds_; }

 private:
  std::shared_ptr<cloud::TenantInstance> launch() {
    ++launches_;
    ++round_launches_;
    std::shared_ptr<cloud::TenantInstance> inst;
    {
      ScopedSpan span(ctx_.rec, SpanName::kLaunch, ctx_.op_id);
      inst = world_.provider->launch(tenant());
    }
    if (inst == nullptr || inst->handle == nullptr) return nullptr;
    return inst;
  }

  bool launch_into_group() {
    auto anchor = launch();
    if (anchor == nullptr) return false;
    group_.push_back(std::move(anchor));
    return true;
  }

  /// Verify against the anchor, keep or terminate. False when the verdict
  /// disagrees with the provider's ground truth.
  bool verify(const std::shared_ptr<cloud::TenantInstance>& candidate) {
    coresidence::Verdict verdict;
    {
      ScopedSpan span(ctx_.rec, SpanName::kVerify, ctx_.op_id);
      verdict = verifier_.verify(*group_.front()->handle, *candidate->handle,
                                 env_);
    }
    const bool truth =
        world_.provider->server_of(group_.front()->instance_id) ==
        world_.provider->server_of(candidate->instance_id);
    const bool said = verdict == coresidence::Verdict::kCoResident;
    if (said) {
      ++hits_;
      for (const std::string& path : paths_) {
        ScopedSpan span(ctx_.rec, SpanName::kRead, ctx_.op_id);
        (void)candidate->handle->read_file_into(path, buffer_);
      }
      group_.push_back(candidate);
    } else {
      ScopedSpan span(ctx_.rec, SpanName::kTerminate, ctx_.op_id);
      world_.provider->terminate(candidate->instance_id);
    }
    return said == truth;
  }

  void fold(const std::vector<leakage::FileFinding>& findings) {
    digest_.u64(findings.size());
    for (const auto& f : findings) {
      digest_.str(f.path);
      digest_.u64(static_cast<std::uint64_t>(f.cls));
      digest_.u64(f.degraded ? 1 : 0);
    }
  }

  void finish_round() {
    Run& r = ctx_.run;
    if (!group_.empty()) {
      const int server =
          world_.provider->server_of(group_.front()->instance_id);
      leakage::ScanOptions options;
      options.num_threads = ctx_.lanes;
      leakage::CrossValidator validator(world_.dc->server(server), options);
      {
        ScopedSpan span(ctx_.rec, SpanName::kScanCold, ctx_.op_id);
        fold(validator.scan());
      }
      provider_step(ctx_, world_);
      const auto before = read_counters();
      {
        ScopedSpan span(ctx_.rec, SpanName::kScanWarm, ctx_.op_id);
        fold(validator.scan());
      }
      const CounterDelta delta{before, read_counters()};
      r.warm_paths += delta("scan_paths_total");
      r.warm_reused += delta("scan_paths_reused_total");
    }
    for (const auto& inst : group_) {
      ScopedSpan span(ctx_.rec, SpanName::kTerminate, ctx_.op_id);
      world_.provider->terminate(inst->instance_id);
    }
    group_.clear();
    round_launches_ = 0;
    ++rounds_;
  }

  [[nodiscard]] std::string tenant() const {
    return "hunter-" + std::to_string(rounds_);
  }

  Context& ctx_;
  CloudWorld& world_;
  std::vector<std::string> paths_;
  coresidence::TimerImplantDetector verifier_;
  coresidence::ProbeEnv env_;
  std::vector<std::shared_ptr<cloud::TenantInstance>> group_;
  std::string buffer_;
  Fnv digest_;
  std::uint64_t cycles_ = 0;
  std::uint64_t launches_ = 0;
  std::uint64_t hits_ = 0;
  int round_launches_ = 0;
  int rounds_ = 0;
};

/// Concrete Table I channel paths on a CC1 host (identical on every
/// server of the facility: they depend only on the hardware geometry).
std::vector<std::string> table1_paths(const cloud::CloudServiceProfile& profile) {
  cloud::Server probe("paths", profile, 0);
  std::vector<std::string> paths;
  for (const auto& channel : leakage::table1_channels()) {
    for (auto& path : leakage::channel_paths(channel, probe.fs())) {
      paths.push_back(std::move(path));
    }
  }
  return paths;
}

void run_coresidence_hunt(Context& ctx) {
  Run& r = ctx.run;
  const cloud::DatacenterConfig config =
      facility(ctx.opt.seed, ctx.lanes, ctx.opt.small, /*benign=*/true);
  r.servers = config.num_racks * config.servers_per_rack;
  {
    CloudWorld world = timed_builds(r, ctx.opt.setups, [&] {
                         return build_cloud(config, mix(ctx.opt.seed, 12));
                       }).world;
    Hunt hunt(ctx, world, table1_paths(config.profile));
    measure(ctx, [&]() { return hunt.cycle(); });
    hunt.abandon_round();
    r.measured.emplace_back("rounds", std::to_string(hunt.rounds()));
  }

  // Reference pass: the reference seed, a fixed number of whole rounds.
  Context check_ctx = reference_context(ctx);
  CloudWorld world =
      build_cloud(facility(kReferenceSeed, ctx.lanes, ctx.opt.small, true),
                  mix(kReferenceSeed, 12))
          .world;
  Hunt hunt(check_ctx, world, table1_paths(config.profile));
  const int check_rounds = 2;
  while (hunt.rounds() < check_rounds) (void)hunt.cycle();
  if (check_ctx.run.failed != 0) {
    r.invariant_errors.push_back("reference pass had wrong verdicts");
  }
  r.check.emplace_back("findings_digest", hex64(hunt.findings_digest()));
  r.check.emplace_back("launches", std::to_string(hunt.launches()));
  r.check.emplace_back("hits", std::to_string(hunt.hits()));
  r.check_launches = hunt.launches();
  r.check_hits = hunt.hits();
}

// ============================================================ fleet_churn

constexpr int kChurnTenants = 16;
constexpr int kBillingEvery = 8;  ///< storms between billing() queries

class Churn {
 public:
  Churn(Context& ctx, CloudWorld& world, std::uint64_t seed)
      : ctx_(ctx), world_(world), rng_(mix(seed, 23)) {
    for (int t = 0; t < kChurnTenants; ++t) {
      char name[32];
      std::snprintf(name, sizeof name, "tenant-%02d", t);
      tenants_.emplace_back(name);
    }
    live_.resize(kChurnTenants);
  }

  /// Fill to half of the slot capacity (8 instances per server), evenly
  /// across tenants, and settle one step. Not part of the measured phase.
  void fill() {
    const int per_tenant = world_.dc->num_servers() * 8 / 2 / kChurnTenants;
    for (int t = 0; t < kChurnTenants; ++t) {
      out_.clear();
      world_.provider->launch_batch(tenants_[static_cast<std::size_t>(t)],
                                    per_tenant, &out_);
      auto& live = live_[static_cast<std::size_t>(t)];
      live.insert(live.end(), out_.begin(), out_.end());
      if (static_cast<int>(out_.size()) != per_tenant) fill_ok_ = false;
    }
    target_ = per_tenant * kChurnTenants;
    world_.provider->step(kSecond);
  }

  /// One storm: launch_batch + terminate_oldest for one tenant, one
  /// provider step, and every kBillingEvery storms a billing() query.
  /// Returns the containers launched + terminated.
  std::uint64_t storm() {
    Run& r = ctx_.run;
    const std::size_t t = static_cast<std::size_t>(storms_ % kChurnTenants);
    const int batch = rng_.range(32, 96);
    ctx_.op_id = storms_++;
    ScopedSpan op(ctx_.rec, SpanName::kOp, ctx_.op_id,
                  static_cast<std::uint32_t>(2 * batch));
    out_.clear();
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(ctx_.rec, SpanName::kLaunch, ctx_.op_id,
                      static_cast<std::uint32_t>(batch));
      world_.provider->launch_batch(tenants_[t], batch, &out_);
    }
    int terminated = 0;
    {
      ScopedSpan span(ctx_.rec, SpanName::kTerminate, ctx_.op_id,
                      static_cast<std::uint32_t>(batch));
      terminated = world_.provider->terminate_oldest(tenants_[t], batch);
    }
    const double per_op_us =
        static_cast<double>(now_ns() - t0) * 1e-3 / (2.0 * batch);
    r.op_us.insert(r.op_us.end(), static_cast<std::size_t>(2 * batch),
                   per_op_us);
    auto& live = live_[t];
    live.insert(live.end(), out_.begin(), out_.end());
    for (int i = 0; i < terminated && !live.empty(); ++i) live.pop_front();
    r.attempted += static_cast<std::uint64_t>(2 * batch);
    r.failed += static_cast<std::uint64_t>(batch - static_cast<int>(out_.size()));
    r.failed += static_cast<std::uint64_t>(batch - terminated);

    provider_step(ctx_, world_);
    if (storms_ % kBillingEvery == 0) {
      ScopedSpan span(ctx_.rec, SpanName::kBilling, ctx_.op_id);
      cloud::BillingMeter& meter = world_.provider->billing();
      for (const auto& tenant : tenants_) billed_ += meter.total_cost(tenant);
    }
    return static_cast<std::uint64_t>(2 * batch);
  }

  /// Live placement (uid -> server, tenant launch order) plus every
  /// tenant's settled bill, as one digest.
  std::uint64_t digest() {
    Fnv h;
    for (std::size_t t = 0; t < live_.size(); ++t) {
      h.u64(live_[t].size());
      for (const std::uint64_t uid : live_[t]) {
        const auto* inst = world_.provider->find_uid(uid);
        h.u64(uid);
        h.u64(inst == nullptr ? ~0ULL
                              : static_cast<std::uint64_t>(inst->server_index));
      }
    }
    cloud::BillingMeter& meter = world_.provider->billing();
    for (const auto& tenant : tenants_) {
      h.f64(meter.total_cost(tenant));
      h.f64(meter.cpu_hours(tenant));
    }
    return h.h;
  }

  /// Live count agrees with the provider and stayed at the fill target.
  [[nodiscard]] bool consistent() const {
    std::size_t live = 0;
    for (const auto& l : live_) live += l.size();
    return fill_ok_ && live == static_cast<std::size_t>(target_) &&
           world_.provider->instance_count() == live;
  }

  [[nodiscard]] std::uint64_t storms() const { return storms_; }
  [[nodiscard]] double billed() const { return billed_; }

 private:
  Context& ctx_;
  CloudWorld& world_;
  InputRng rng_;
  std::vector<std::string> tenants_;
  std::vector<std::deque<std::uint64_t>> live_;
  std::vector<std::uint64_t> out_;
  std::uint64_t storms_ = 0;
  int target_ = 0;
  bool fill_ok_ = true;
  double billed_ = 0.0;
};

void run_fleet_churn(Context& ctx) {
  Run& r = ctx.run;
  const cloud::DatacenterConfig config =
      facility(ctx.opt.seed, ctx.lanes, ctx.opt.small, /*benign=*/false);
  r.servers = config.num_racks * config.servers_per_rack;
  {
    CloudWorld world = timed_builds(r, ctx.opt.setups, [&] {
                         return build_cloud(config, mix(ctx.opt.seed, 22));
                       }).world;
    Churn churn(ctx, world, ctx.opt.seed);
    churn.fill();
    measure(ctx, [&]() { return churn.storm(); });
    if (!churn.consistent()) {
      r.invariant_errors.push_back("live fleet drifted from the fill target");
    }
    if (!std::isfinite(churn.billed()) || churn.billed() < 0.0) {
      r.invariant_errors.push_back("billing total not finite");
    }
    r.measured.emplace_back("storms", std::to_string(churn.storms()));
  }

  Context check_ctx = reference_context(ctx);
  CloudWorld world =
      build_cloud(facility(kReferenceSeed, ctx.lanes, ctx.opt.small, false),
                  mix(kReferenceSeed, 22))
          .world;
  Churn churn(check_ctx, world, kReferenceSeed);
  churn.fill();
  const int check_storms = ctx.opt.small ? 64 : 512;
  for (int i = 0; i < check_storms; ++i) (void)churn.storm();
  if (!churn.consistent() || check_ctx.run.failed != 0) {
    r.invariant_errors.push_back("reference pass lost or refused containers");
  }
  r.check.emplace_back("placement_billing_digest", hex64(churn.digest()));
}

// ============================================================ reporting

struct SpanStats {
  std::vector<double> per_item_us[static_cast<int>(SpanName::kCount)];
  std::vector<double> self_us[static_cast<int>(SpanName::kCount)];
  double total_us[static_cast<int>(SpanName::kCount)] = {};
};

SpanStats span_stats(const SpanRecorder& rec) {
  SpanStats s;
  const auto self = rec.self_times();
  const auto& spans = rec.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto k = static_cast<int>(spans[i].name);
    const double us =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-3;
    s.per_item_us[k].push_back(us / std::max<std::uint32_t>(spans[i].items, 1));
    s.self_us[k].push_back(static_cast<double>(self[i]) * 1e-3);
    s.total_us[k] += us;
  }
  return s;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Median over the phase's whole seconds of the ops each completed. The
/// host steals CPU from this machine in bursts that stall every lane of a
/// parallel step; the median keeps a burst shorter than half the phase
/// out of the figure. Phases under one second use the plain ratio.
double ops_per_second(const Run& r) {
  if (!r.per_second.empty()) return median(r.per_second);
  return r.wall_s > 0.0 ? static_cast<double>(r.ops) / r.wall_s : 0.0;
}

std::vector<Metric> end_to_end(const Run& r) {
  return {
      {"setup_s", "s", median(r.setup_s), ""},
      {"ops_per_s", "1/s", ops_per_second(r), ""},
      {"op_p50_us", "us", quantile(r.op_us, 0.50), ""},
      {"peak_rss_mb", "MB", peak_rss_mb(), ""},
  };
}

std::vector<Metric> per_layer(const Context& ctx) {
  const Run& r = ctx.run;
  const std::string& w = ctx.opt.workload;
  const bool attack = w == "attack_window";
  const bool hunt = w == "coresidence_hunt";
  const SpanStats s = span_stats(ctx.rec);
  auto k = [](SpanName n) { return static_cast<int>(n); };
  const double ops = static_cast<double>(std::max<std::uint64_t>(r.ops, 1));
  const CounterDelta& c = r.counters;
  std::vector<Metric> m;
  auto add = [&](const char* name, const char* unit, double value,
                 std::string note = "") {
    m.push_back({name, unit, value, std::move(note)});
  };
  // Median per-container time of a span kind (batch spans divide by
  // their size), in µs or, with unit "ms", in ms.
  auto add_span = [&](const char* name, const char* unit, SpanName n,
                      const char* call) {
    const auto& v = s.per_item_us[k(n)];
    const double scale = std::strcmp(unit, "ms") == 0 ? 1e-3 : 1.0;
    add(name, unit, v.empty() ? 0.0 : median(v) * scale,
        v.empty() ? std::string("n/a: this workload makes no ") + call + " call"
                  : std::to_string(v.size()) + " traced calls, median");
  };

  add("sim.build_s", "s", attack ? median(r.setup_s) : 0.0,
      attack ? "median SimEngine ctor (facility, warmup, fleet deploy)"
             : "n/a: this workload builds Datacenter + CloudProvider directly");
  add_span("sim.step_us", "us", SpanName::kEngineStep, "SimEngine::step");

  const double cloud_build = attack ? r.probe_build_s : median(r.setup_s);
  const std::string build_note =
      attack ? "standalone Datacenter ctor with the engine's facility config"
             : "median Datacenter + CloudProvider ctors";
  add("cloud.build_s", "s", cloud_build, build_note);
  add("cloud.build_us_per_server", "us",
      r.servers > 0 ? cloud_build * 1e6 / r.servers : 0.0, build_note);
  add("cloud.rss_kb_per_server", "KB",
      r.servers > 0 ? r.rss_growth_kb / r.servers : 0.0,
      "resident-set growth over a Datacenter ctor on fresh pages");
  add_span("cloud.step_us", "us", SpanName::kProviderStep, "CloudProvider::step");
  add("cloud.active_servers", "count",
      r.active_samples > 0 ? r.active_sum / static_cast<double>(r.active_samples) : 0.0,
      "mean of num_servers - sleeping_servers after each step");
  const SpanName step_span = attack ? SpanName::kEngineStep : SpanName::kProviderStep;
  add("cloud.step_us_per_active_server", "us",
      r.traced_active_server_steps > 0
          ? s.total_us[k(step_span)] / static_cast<double>(r.traced_active_server_steps)
          : 0.0,
      "traced step time / engine_active_server_steps_total delta in traced blocks");
  add_span("cloud.launch_us", "us", SpanName::kLaunch, "CloudProvider launch");
  add_span("cloud.terminate_us", "us", SpanName::kTerminate, "CloudProvider terminate");
  add_span("cloud.billing_us", "us", SpanName::kBilling, "CloudProvider::billing");
  add_span("fs.read_us", "us", SpanName::kRead, "Container::read_file_into");

  auto add_ratio = [&](const char* name, const std::string& family) {
    const double hits = c(family + "_hits_total");
    const double total = hits + c(family + "_misses_total");
    add(name, "ratio", total > 0.0 ? hits / total : 0.0,
        total > 0.0 ? "base: " + std::to_string(static_cast<std::uint64_t>(total)) +
                          " " + family + " lookups in the measured phase"
                    : "n/a: no " + family + " lookups in the measured phase");
  };
  add_ratio("fs.render_hit_ratio", "fs_render_cache");
  add_ratio("fs.viewer_hit_ratio", "fs_viewer_cache");
  add("fs.invalidations_per_op", "1/op",
      (c("fs_render_cache_invalidations_total") +
       c("fs_viewer_cache_invalidations_total")) / ops,
      "base: measured ops");

  add_span("leakage.scan_cold_ms", "ms", SpanName::kScanCold, "CrossValidator::scan");
  add_span("leakage.scan_warm_ms", "ms", SpanName::kScanWarm, "CrossValidator::scan");
  add("leakage.reuse_ratio", "ratio",
      r.warm_paths > 0.0 ? r.warm_reused / r.warm_paths : 0.0,
      hunt ? "base: scan_paths_total on warm scans" : "n/a: no scans");

  {
    const auto& v = s.self_us[k(SpanName::kVerify)];
    add("coresidence.verify_self_us", "us", v.empty() ? 0.0 : median(v),
        v.empty() ? "n/a: no verify calls"
                  : "verify span minus its ProbeEnv::advance provider steps");
  }
  add("coresidence.launches_per_hit", "launch/hit",
      r.check_hits > 0 ? static_cast<double>(r.check_launches) /
                             static_cast<double>(r.check_hits)
                       : 0.0,
      hunt ? "exact, from the fixed-length reference pass (anchors included in launches)"
           : "n/a: no co-residence hunt");

  add("attack.rapl_samples_per_step", "1/step",
      c("attack_rapl_samples_total") / ops,
      attack ? "base: SimEngine steps" : "base: ops (no RaplMonitor here)");
  add("obs.events_per_step", "1/step", r.events_per_step,
      attack ? "SimEngine::events_drained delta / steps" : "event stream off");
  add("obs.events_dropped", "count", c("events_dropped_total"),
      "events_dropped_total delta; must be 0");
  const double pfor = c("pool_parallel_for_total");
  add("util.parallel_for_per_op", "1/op", pfor / ops, "base: measured ops");
  add("util.chunks_per_parallel_for", "1/call",
      pfor > 0.0 ? c("pool_lane_chunks_total") / pfor : 0.0,
      "pool_lane_chunks_total (Scope::kRuntime) / pool_parallel_for_total");

  const double untraced = r.mode_s[0] > 0.0 ? r.mode_ops[0] / r.mode_s[0] : 0.0;
  const double traced = r.mode_s[1] > 0.0 ? r.mode_ops[1] / r.mode_s[1] : 0.0;
  add("trace.overhead_frac", "ratio",
      untraced > 0.0 ? (untraced - traced) / untraced : 0.0,
      "(untraced - traced) ops/s over alternating 250 ms blocks");
  return m;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

void print_facts(const char* key, const Facts& facts) {
  std::printf("\"%s\": {", key);
  for (std::size_t i = 0; i < facts.size(); ++i) {
    std::printf("%s\"%s\": \"%s\"", i == 0 ? "" : ", ", facts[i].first.c_str(),
                facts[i].second.c_str());
  }
  std::printf("}, ");
}

void print_metrics(const char* key, const std::vector<Metric>& metrics) {
  std::printf("\"%s\": {", key);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"note\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str(),
                json_escape(m.note).c_str());
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  ctx.opt = parse(argc, argv);
  const int nproc = online_cpus();
  ctx.lanes = ctx.opt.lanes > 0 ? ctx.opt.lanes : std::clamp(nproc, 1, 4);
  ctx.active_steps =
      &obs::Registry::global().counter("engine_active_server_steps_total");

  if (ctx.opt.workload == "attack_window") {
    run_attack_window(ctx);
  } else if (ctx.opt.workload == "coresidence_hunt") {
    run_coresidence_hunt(ctx);
  } else if (ctx.opt.workload == "fleet_churn") {
    run_fleet_churn(ctx);
  } else {
    fail(("unknown workload " + ctx.opt.workload).c_str());
  }

  if (!ctx.opt.spans_path.empty() && ctx.opt.trace &&
      !ctx.rec.write_csv(ctx.opt.spans_path)) {
    std::fprintf(stderr, "cleaks_perfbench: cannot write %s\n",
                 ctx.opt.spans_path.c_str());
    return 1;
  }

  const Run& r = ctx.run;
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, ",
              ctx.opt.workload.c_str(),
              static_cast<unsigned long long>(ctx.opt.seed));
  std::printf(
      "\"lanes\": %d, \"nproc\": %d, \"cycle_source\": \"steady_clock\", "
      "\"build_type\": \"%s\", \"trace\": %d, \"small\": %d, ",
      ctx.lanes, nproc, PERFBENCH_BUILD_TYPE, ctx.opt.trace ? 1 : 0,
      ctx.opt.small ? 1 : 0);
  std::printf(
      "\"ops\": %llu, \"attempted\": %llu, \"failed\": %llu, \"samples\": %zu, "
      "\"wall_s\": %.9g, \"cpu_s\": %.9g, \"steal_frac\": %.6g, \"setups\": %zu, "
      "\"op_p99_us\": %.17g, ",
      static_cast<unsigned long long>(r.ops),
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), r.op_us.size(), r.wall_s, r.cpu_s,
      r.steal_frac,
      r.setup_s.size(), quantile(r.op_us, 0.99));
  std::printf("\"invariant_errors\": [");
  for (std::size_t i = 0; i < r.invariant_errors.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                json_escape(r.invariant_errors[i]).c_str());
  }
  std::printf("], ");
  print_facts("check", r.check);
  print_facts("measured", r.measured);
  print_metrics("end_to_end", end_to_end(r));
  std::printf(", ");
  print_metrics("per_layer", ctx.opt.trace ? per_layer(ctx) : std::vector<Metric>{});
  std::printf("}\n");
  return 0;
}
