// Hardware specification for a simulated physical server.
//
// The spec fixes everything the pseudo filesystems expose about hardware
// (/proc/cpuinfo, /proc/meminfo sizing, RAPL availability, coretemp, cpuidle
// states, NUMA layout) and the ground-truth energy model parameters that
// drive the RAPL counters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cleaks::hw {

/// Ground-truth energy coefficients. The simulator charges energy as
///   E_core   = p_core_idle_w * t + e_inst_nj * I + e_cmiss_core_nj * CM
///              + e_bmiss_nj * BM
///   E_dram   = p_dram_idle_w * t + e_cmiss_dram_nj * CM
///   E_pkg    = E_core + E_dram + p_uncore_w * t
/// This family (energy linear in retired instructions with a slope that
/// depends on the miss mix) reproduces the empirical laws of Fig 6 and 7 of
/// the paper, which is what makes the defense's regression model well-posed.
struct EnergyModelParams {
  double p_core_idle_w = 0.7;      ///< idle power per core (W)
  double p_uncore_w = 6.0;         ///< constant uncore/package power (W)
  double p_dram_idle_w = 2.2;      ///< DRAM background power (W)
  double e_inst_nj = 1.15;         ///< nJ per retired instruction
  double e_cmiss_core_nj = 9.0;    ///< nJ per LLC miss charged to the core
  double e_bmiss_nj = 3.5;         ///< nJ per branch misprediction
  double e_cmiss_dram_nj = 16.0;   ///< nJ per LLC miss charged to DRAM
};

/// One cpuidle state as exposed under
/// /sys/devices/system/cpu/cpu#/cpuidle/state#/.
struct CpuIdleStateSpec {
  std::string name;
  std::uint64_t exit_latency_us = 0;
  std::uint64_t min_residency_us = 0;
};

struct HardwareSpec {
  std::string model_name = "Intel(R) Core(TM) i7-6700 CPU @ 3.40GHz";
  std::string vendor_id = "GenuineIntel";
  int cpu_family = 6;
  int model = 94;
  int num_cores = 8;          ///< logical CPUs visible to the kernel
  int cores_per_package = 8;
  int num_packages = 1;
  double freq_ghz = 3.4;
  std::uint64_t memory_bytes = 16ULL << 30;
  std::uint64_t cache_kb = 8192;
  int numa_nodes = 1;
  bool has_rapl = true;       ///< Sandy Bridge or later
  bool has_dram_rapl = true;
  bool has_coretemp = true;
  std::vector<CpuIdleStateSpec> cpuidle_states = default_cpuidle_states();
  EnergyModelParams energy;

  /// Host-level RAPL power cap (package limit, W); 0 disables capping.
  double rapl_power_cap_w = 0.0;

  static std::vector<CpuIdleStateSpec> default_cpuidle_states();

  [[nodiscard]] double cycles_per_second_per_core() const noexcept {
    return freq_ghz * 1e9;
  }
};

/// The paper's local testbed: i7-6700 3.40GHz, 8 logical cores, 16 GB RAM.
HardwareSpec testbed_i7_6700();

/// A two-socket cloud server of the era (used for the data-center
/// experiments): 32 logical cores, 128 GB, ~90 W idle, ~350 W peak.
HardwareSpec cloud_xeon_server();

/// A server whose CPU predates Sandy Bridge: no RAPL interface at all
/// (models the clouds in Table I where RAPL channels are absent for
/// hardware reasons).
HardwareSpec pre_sandy_bridge_server();

}  // namespace cleaks::hw
