#include "util/rng.h"

#include <cmath>

#include "util/fnv.h"

namespace cleaks {
namespace {

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

Rng Rng::fork(std::uint64_t salt) const noexcept {
  // Mix the current state (without advancing it) with the salt.
  std::uint64_t mixed = state_[0] ^ rotl(state_[3], 13) ^ (salt * 0x9e3779b97f4a7c15ULL);
  return Rng{mixed};
}

Rng Rng::fork(std::string_view salt) const noexcept {
  return fork(fnv1a64(salt));
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
