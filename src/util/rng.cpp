#include "util/rng.h"

#include <cmath>

#include "util/fnv.h"

namespace cleaks {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

Rng::result_type Rng::operator()() noexcept {
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

Rng Rng::fork(std::uint64_t salt) const noexcept {
  // Mix the current state (without advancing it) with the salt.
  std::uint64_t mixed = state_[0] ^ rotl(state_[3], 13) ^ (salt * 0x9e3779b97f4a7c15ULL);
  return Rng{mixed};
}

Rng Rng::fork(std::string_view salt) const noexcept {
  return fork(fnv1a64(salt));
}

std::uint64_t Rng::uniform_u64(std::uint64_t lo, std::uint64_t hi) noexcept {
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

std::int64_t Rng::uniform_i64(std::int64_t lo, std::int64_t hi) noexcept {
  if (lo >= hi) return lo;
  const auto span = static_cast<std::uint64_t>(hi - lo);
  return lo + static_cast<std::int64_t>(uniform_u64(0, span));
}

double Rng::uniform01() noexcept {
  // 53 random mantissa bits -> uniform double in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

double Rng::gaussian(double mean, double stddev) noexcept {
  // Box-Muller; draws two uniforms per call. Simple and adequate here.
  double u1 = uniform01();
  double u2 = uniform01();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::exponential(double mean) noexcept {
  double u = uniform01();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

std::string Rng::hex_string(std::size_t digits) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(digits);
  for (std::size_t i = 0; i < digits; ++i) {
    out.push_back(kHex[uniform_u64(0, 15)]);
  }
  return out;
}

std::uint64_t fnv1a64(std::string_view data) noexcept {
  Fnv64 hash{kFnvOffsetBasis};
  hash.add_string(data);
  return hash.hash;
}

}  // namespace cleaks
