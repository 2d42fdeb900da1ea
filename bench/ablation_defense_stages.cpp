// Ablation: the defense-design space (DESIGN.md choice #4) — plain masking
// (stage 1) vs virtualized views (lxcfs-style) vs the power-based
// namespace (stage 2), and their combinations. For each configuration:
//
//   leaking    — Table I paths the cross-validation tool still classifies
//                as full leaks;
//   functional — Table I paths a tenant can still read at all (masking
//                trades functionality for isolation; virtualization keeps
//                the interface);
//   detectors  — how many of the ten co-residence detectors still verify a
//                truly co-resident pair;
//   crest      — whether the synergistic attacker's RAPL monitor still
//                tracks host load (the Fig 3 precondition).
//
// Each configuration is a pinned 1x1 facility; the three measurements
// are the engine's typed probes (leak_scan / coresidence / crest_signal).
#include <cstdio>
#include <iostream>

#include "containerleaks.h"
#include "sim/engine.h"

using namespace cleaks;

namespace {

struct Config {
  std::string name;
  fs::MaskingPolicy policy;
  bool power_namespace = false;
};

struct Row {
  int leaking = 0;
  int functional = 0;
  int total_paths = 0;
  int detectors_ok = 0;
  bool crest_signal = false;
};

Row evaluate(const Config& config, const defense::PowerModel& model) {
  sim::ScenarioSpec spec;
  spec.name = "defense-stage-" + config.name;
  spec.datacenter.servers_per_rack = 1;
  spec.datacenter.benign_load = false;
  spec.datacenter.profile = cloud::local_testbed();
  spec.datacenter.profile.policy = config.policy;
  spec.datacenter.pinned_host =
      cloud::PinnedHost{.seed = 606, .prior_uptime = 25 * kDay};
  spec.host_tick = 100 * kMillisecond;
  // The namespace is always constructed (as a real rollout would ship
  // it); `enable` decides whether it is switched on for this config.
  spec.defense.model = model;
  spec.defense.enable = config.power_namespace;
  sim::SimEngine engine(spec);

  Row row;

  // --- leak scan over the Table I channels ---
  container::ContainerConfig scan_cc;
  scan_cc.num_cpus = 4;
  scan_cc.memory_limit_bytes = 4ULL << 30;
  const sim::SimEngine::LeakScanProbe scan = engine.leak_scan_probe(scan_cc);
  row.leaking = scan.leaking;
  row.functional = scan.functional;
  row.total_paths = scan.total_paths;

  // --- co-residence detectors on a truly co-resident pair ---
  container::ContainerConfig pair_cc;
  pair_cc.num_cpus = 2;
  row.detectors_ok = engine.coresidence_probe(pair_cc);

  // --- crest signal: does an in-container monitor track a host surge? ---
  row.crest_signal = engine.crest_signal_probe();
  return row;
}

}  // namespace

int main() {
  std::printf("== ablation: defense stages ==\n\n");
  auto model_result = defense::train_default_model(661);
  if (!model_result.is_ok()) {
    std::printf("training failed\n");
    return 1;
  }
  const auto& model = model_result.value();

  const std::vector<Config> configs = {
      {"stock-docker", fs::MaskingPolicy::docker_default(), false},
      {"stage1-mask", fs::MaskingPolicy::paper_stage1(), false},
      {"lxcfs-views", fs::MaskingPolicy::lxcfs_defense(), false},
      {"power-ns-only", fs::MaskingPolicy::docker_default(), true},
      {"lxcfs+power-ns", fs::MaskingPolicy::lxcfs_defense(), true},
  };

  TablePrinter table({"configuration", "leaking", "functional", "detectors",
                      "crest-signal"});
  std::vector<Row> rows;
  obs::BenchReport report("ablation_defense_stages");
  report.json().begin_array("configurations");
  for (const auto& config : configs) {
    const Row row = evaluate(config, model);
    rows.push_back(row);
    table.add_row({config.name,
                   strformat("%d/%d", row.leaking, row.total_paths),
                   strformat("%d/%d", row.functional, row.total_paths),
                   strformat("%d/10", row.detectors_ok),
                   row.crest_signal ? "YES" : "no"});
    report.json()
        .begin_object()
        .field("configuration", config.name)
        .field("leaking", row.leaking)
        .field("functional", row.functional)
        .field("total_paths", row.total_paths)
        .field("detectors_ok", row.detectors_ok)
        .field("crest_signal", row.crest_signal)
        .end_object();
  }
  report.json().end_array();
  table.print(std::cout);

  std::printf(
      "\nreading: stage-1 masking closes everything but kills the\n"
      "interfaces; lxcfs-style virtualization keeps them alive while\n"
      "closing the task/uptime channels; only the power-based namespace\n"
      "removes the crest signal without touching the interface. The\n"
      "combination approximates the paper's end state.\n");
  const bool shape_holds =
      rows[0].leaking > 0 && rows[0].crest_signal &&        // stock leaks
      rows[1].functional == 0 &&                            // stage1 kills fn
      rows[2].functional > rows[1].functional &&            // lxcfs keeps fn
      rows[2].leaking < rows[0].leaking &&                  // ...and helps
      !rows[3].crest_signal &&                              // power-ns blinds
      rows[4].detectors_ok < rows[0].detectors_ok &&        // combo strongest
      !rows[4].crest_signal;
  std::printf("shape holds: %s\n", shape_holds ? "YES" : "NO");

  report.json().field("shape_holds", shape_holds);
  const std::string path = report.write();
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());
  return shape_holds ? 0 : 1;
}
