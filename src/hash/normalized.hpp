// Normalization of cryptographic digests onto [0, 1).
//
// The AVMEM predicate (paper eq. 1) compares H(id(x), id(y)) against
// f(av(x), av(y)), where H is "a (consistent) normalized cryptographic hash
// function with range [0, 1]". We normalize by interpreting the first eight
// digest bytes as a big-endian 64-bit integer and dividing by 2^64, which
// yields a value uniform on [0, 1) to 53-bit double precision.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace avmem::hashing {

/// Interpret the first 8 bytes of `digest` as a big-endian integer scaled
/// into [0, 1). Requires `digest.size() >= 8`.
[[nodiscard]] constexpr double normalizeDigest(
    std::span<const std::uint8_t> digest) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | digest[static_cast<std::size_t>(i)];
  }
  // Keep the top 53 bits so the quotient is exact in a double and the
  // result is strictly below 1.0 (64-bit / 2^64 could round up to 1.0).
  return static_cast<double>(v >> 11) * 0x1.0p-53;
}

/// Array overload (covers Sha1Digest without including sha1.hpp).
template <std::size_t N>
  requires(N >= 8)
[[nodiscard]] constexpr double normalizeDigest(
    const std::array<std::uint8_t, N>& digest) noexcept {
  return normalizeDigest(std::span<const std::uint8_t>(digest));
}

}  // namespace avmem::hashing
