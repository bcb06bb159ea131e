// SHA-1 message digest (FIPS 180-1), implemented from scratch.
//
// AVMEM's consistency property (paper eq. 1) rests on every party computing
// the same H(id(x), id(y)). The paper suggests "a normalized version of
// SHA-1 or MD-5"; this file provides the SHA-1 half of that choice.
//
// SHA-1 is used here as a *consistent pseudo-random function*, not for
// security against collision attacks; that matches the paper's use.
//
// Besides the streaming Sha1 class, two entries serve the pair hash over
// 6-byte NodeId encodings, each with lanes picked once from CPUID:
// sha1Pair6 (one pair: SHA-NI, or a scalar one-block kernel) and
// sha1Pair6Many (many pairs sharing one operand: sixteen per AVX-512
// block, or sha1Pair6 per pair). Running several SHA-NI pairs
// interleaved measured no faster than one at a time, so there is no such
// lane.
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

/// Which operand a multi-pair call holds fixed.
enum class PairSide : std::uint8_t {
  kLeft,   ///< out[i] = H(fixed, others[i]): a list owner against candidates
  kRight,  ///< out[i] = H(others[i], fixed): every monitor of one target
};

/// sha1Pair6 over many pairs that share one operand. Identifiers are
/// passed as words whose low 48 bits are the 6-byte wire encoding read
/// big-endian ((ip << 16) | port); bits 48..63 are ignored, so
/// fast64Tail6 words serve as they are. out[i] = sha1Pair6(fixed,
/// others[i]) for PairSide::kLeft and sha1Pair6(others[i], fixed) for
/// PairSide::kRight. Requires out.size() >= others.size().
///
/// The lane is picked once from the CPU: sixteen pairs per AVX-512 block
/// where the CPU has AVX-512F, else a loop over sha1Pair6. Both return
/// sha1Pair6's value for every pair (tests/hash/sha1_pair_test.cpp).
void sha1Pair6Many(std::uint64_t fixed, std::span<const std::uint64_t> others,
                   PairSide fixedSide, std::span<std::uint64_t> out) noexcept;

/// The individual lanes behind sha1Pair6 and sha1Pair6Many, for the
/// lane-equivalence tests and the micro-benchmark. Callers outside those
/// use sha1Pair6 and sha1Pair6Many.
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

/// True when this CPU runs the AVX-512 multi-pair lane (CPUID leaf 7 EBX
/// bit 16, with the OS saving the opmask and ZMM state). Always false on
/// non-x86 builds.
[[nodiscard]] bool avx512Supported() noexcept;

/// The multi-pair fallback lane: sha1Pair6 once per pair.
void pair6ManyLoop(std::uint64_t fixed, std::span<const std::uint64_t> others,
                   PairSide fixedSide, std::span<std::uint64_t> out) noexcept;

/// The AVX-512 multi-pair lane: sixteen pairs per block, one pair per
/// 32-bit vector lane, the round functions as vpternlogd and the rotates
/// as vprold over the one pre-padded block. Call only when
/// avx512Supported(); on non-x86 builds it forwards to pair6ManyLoop.
void pair6ManyAvx512(std::uint64_t fixed,
                     std::span<const std::uint64_t> others,
                     PairSide fixedSide,
                     std::span<std::uint64_t> out) noexcept;

}  // namespace sha1_lanes

}  // namespace avmem::hashing
