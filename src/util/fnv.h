// FNV-1a (64-bit): the one hash behind every determinism digest, viewer
// fingerprint and named RNG fork in the tree.
//
// Two seeds are in use, and recorded goldens pin both:
//   * kFnvOffsetBasis (14695981039346656037) is the standard FNV-1a offset
//     basis. fnv1a64() (util/rng.h) starts from it.
//   * kDigestSeed (1469598103934665603) is that basis with its last digit
//     dropped. Every digest — metrics snapshots, the event stream, window
//     summaries, the pseudo-fs viewer fingerprint, bench and test digests
//     — seeds with it, and the recorded goldens were captured against it.
//     Neither may be "fixed" into the other without re-recording them.
//
// Header-only: cleaks_obs links below cleaks_util (see util/env.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace cleaks {

inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kDigestSeed = 1469598103934665603ULL;

/// FNV-1a accumulator. u64 and double values hash as their eight
/// little-endian bytes (a double by its bit pattern).
struct Fnv64 {
  std::uint64_t hash = kDigestSeed;

  void add_byte(unsigned char byte) noexcept {
    hash ^= byte;
    hash *= kFnvPrime;
  }
  void add_bytes(const void* data, std::size_t size) noexcept {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) add_byte(bytes[i]);
  }
  void add_string(std::string_view text) noexcept {
    add_bytes(text.data(), text.size());
  }
  void add_u64(std::uint64_t value) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      add_byte(static_cast<unsigned char>(value >> (8 * byte)));
    }
  }
  void add_double(double value) noexcept {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof value);
    std::memcpy(&bits, &value, sizeof bits);
    add_u64(bits);
  }
};

}  // namespace cleaks
