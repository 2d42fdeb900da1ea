// ContainerLeaks — umbrella public header.
//
// Reproduction of "ContainerLeaks: Emerging Security Threats of Information
// Leakages in Container Clouds" (DSN 2017). Include this to get the whole
// public API; fine-grained headers are available per module:
//
//   hw/         simulated hardware (RAPL, DTS, cpuidle, energy model)
//   kernel/     simulated Linux kernel (namespaces, cgroups, scheduler,
//               perf_event, /proc state, Host)
//   fs/         procfs/sysfs pseudo filesystems + masking policies
//   container/  Docker/LXC-style container runtime
//   workload/   workload profiles, SPEC/UnixBench suites, diurnal load
//   cloud/      servers, racks, breakers, billing, provider, CC1..CC5
//   leakage/    cross-validation leak detector, UVM metrics, inspector
//   coresidence/ co-residence detectors + accuracy evaluation
//   attack/     RAPL monitor, power attack strategies, orchestration
//   defense/    power model, trainer, power-based namespace, masking
#pragma once

#include "attack/monitor.h"
#include "attack/orchestrator.h"
#include "attack/strategy.h"
#include "cloud/billing.h"
#include "cloud/breaker.h"
#include "cloud/datacenter.h"
#include "cloud/profiles.h"
#include "cloud/provider.h"
#include "cloud/server.h"
#include "container/container.h"
#include "coresidence/covert.h"
#include "coresidence/detector.h"
#include "coresidence/evaluation.h"
#include "defense/power_model.h"
#include "defense/power_namespace.h"
#include "defense/trainer.h"
#include "fs/masking.h"
#include "fs/pseudo_fs.h"
#include "hw/spec.h"
#include "kernel/host.h"
#include "leakage/channels.h"
#include "leakage/detector.h"
#include "leakage/inspector.h"
#include "leakage/uvm.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"
#include "workload/diurnal.h"
#include "workload/profiles.h"
#include "workload/unixbench.h"
