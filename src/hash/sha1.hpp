// SHA-1 message digest (FIPS 180-1), implemented from scratch.
//
// AVMEM's consistency property (paper eq. 1) rests on every party computing
// the same H(id(x), id(y)). The paper suggests "a normalized version of
// SHA-1 or MD-5"; this file provides the SHA-1 half of that choice.
//
// SHA-1 is used here as a *consistent pseudo-random function*, not for
// security against collision attacks; that matches the paper's use.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace avmem::hashing {

/// A 160-bit SHA-1 digest.
using Sha1Digest = std::array<std::uint8_t, 20>;

/// Incremental SHA-1 hasher.
///
/// Usage:
///   Sha1 h;
///   h.update(bytes1);
///   h.update(bytes2);
///   Sha1Digest d = h.finish();
///
/// `finish()` may be called exactly once; the object is then spent.
class Sha1 {
 public:
  Sha1() noexcept { reset(); }

  /// Re-initialize to the empty-message state.
  void reset() noexcept;

  /// Absorb `data` into the hash state.
  void update(std::span<const std::uint8_t> data) noexcept;

  /// Convenience overload for string payloads.
  void update(std::string_view data) noexcept {
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  }

  /// Apply padding and produce the digest. The hasher must be `reset()`
  /// before reuse.
  [[nodiscard]] Sha1Digest finish() noexcept;

 private:
  void processBlock(const std::uint8_t* block) noexcept;

  std::array<std::uint32_t, 5> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t totalBytes_ = 0;
  std::size_t bufferLen_ = 0;
};

/// One-shot SHA-1 of a byte span.
[[nodiscard]] Sha1Digest sha1(std::span<const std::uint8_t> data) noexcept;

/// One-shot SHA-1 of a string payload.
[[nodiscard]] Sha1Digest sha1(std::string_view data) noexcept;

/// Lower-case hexadecimal rendering of a digest (40 chars).
[[nodiscard]] std::string toHex(const Sha1Digest& digest);

/// The top 64 digest bits (bytes 0..7, big-endian) of SHA-1(a || b) for two
/// 6-byte inputs: the pair hash H(id(x), id(y)) over NodeId wire encodings.
/// The 12-byte message fits one pre-padded block (w0..w2 message,
/// w3 = 0x80000000, w4..w14 = 0, w15 = 96), compressed once.
///
/// The lane is picked once from the CPU: SHA-NI where the CPU has it, a
/// scalar one-block kernel otherwise. Both return the same value for every
/// input (tests/hash/sha1_pair_test.cpp), so the choice is invisible to
/// callers.
[[nodiscard]] std::uint64_t sha1Pair6(
    std::span<const std::uint8_t, 6> a,
    std::span<const std::uint8_t, 6> b) noexcept;

/// The individual lanes behind sha1Pair6, for the lane-equivalence test and
/// the micro-benchmark. Callers outside those use sha1Pair6.
namespace sha1_lanes {

/// True when this CPU runs the SHA-NI lane (CPUID leaf 7 EBX bit 29 plus
/// SSE4.1). Always false on non-x86 builds.
[[nodiscard]] bool niSupported() noexcept;

/// The fallback lane: a scalar compression of the one pre-padded block,
/// with a 16-word ring schedule and one loop per round function.
[[nodiscard]] std::uint64_t pair6Generic(
    std::span<const std::uint8_t, 6> a,
    std::span<const std::uint8_t, 6> b) noexcept;

/// The SHA-NI lane. Call only when niSupported(); on non-x86 builds it
/// forwards to pair6Generic.
[[nodiscard]] std::uint64_t pair6Ni(
    std::span<const std::uint8_t, 6> a,
    std::span<const std::uint8_t, 6> b) noexcept;

}  // namespace sha1_lanes

}  // namespace avmem::hashing
