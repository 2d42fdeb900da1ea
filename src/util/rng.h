// Deterministic, splittable random number generation.
//
// Every experiment in this repository is seeded so that benches reproduce the
// same series run-to-run. Rng wraps a SplitMix64-seeded xoshiro256**
// generator; child generators are derived with fork() so that adding a new
// consumer does not perturb the stream seen by existing consumers.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>

namespace cleaks {

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm):
/// fast, 256-bit state, passes BigCrush. Satisfies UniformRandomBitGenerator
/// so it composes with <random> distributions. The per-draw members are
/// inline: a host tick makes about a hundred draws, most with bounds that
/// are constants at the call site.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds state via SplitMix64 so nearby seeds yield unrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Derive an independent child generator keyed by `salt`. The parent's
  /// stream is not advanced, so fork order is irrelevant.
  [[nodiscard]] Rng fork(std::uint64_t salt) const noexcept;
  [[nodiscard]] Rng fork(std::string_view salt) const noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi) noexcept {
    if (lo >= hi) return lo;
    const std::uint64_t range = hi - lo + 1;
    if (range == 0) return (*this)();  // full 64-bit range
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = max() - max() % range;
    std::uint64_t draw;
    do {
      draw = (*this)();
    } while (draw >= limit);
    return lo + draw % range;
  }
  std::int64_t uniform_i64(std::int64_t lo, std::int64_t hi) noexcept {
    if (lo >= hi) return lo;
    const auto span = static_cast<std::uint64_t>(hi - lo);
    return lo + static_cast<std::int64_t>(uniform_u64(0, span));
  }

  /// Uniform double in [0, 1).
  double uniform01() noexcept {
    // 53 random mantissa bits -> uniform double in [0,1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform01();
  }

  /// Gaussian with given mean and standard deviation.
  double gaussian(double mean, double stddev) noexcept {
    // Box-Muller; draws two uniforms per call. Simple and adequate here.
    double u1 = uniform01();
    double u2 = uniform01();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double mag = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
  }

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// Exponentially distributed value with the given mean (>0).
  double exponential(double mean) noexcept;

  /// Random lowercase hex string of `digits` characters.
  std::string hex_string(std::size_t digits);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

/// 64-bit FNV-1a, used to key forked streams by name.
std::uint64_t fnv1a64(std::string_view data) noexcept;

}  // namespace cleaks
