// Batched kFast64 pair hashing over 6-byte NodeId wire encodings.
//
// The plan-phase hot loops (Discovery candidate evaluation, the rendezvous
// feed's admission scans) compute H(self, y) for one fixed `self` against
// hundreds of contiguous candidates per round. The general fast64Pair walks
// both identifiers through fast64Absorb per call; but a NodeId encodes to
// exactly 6 bytes, so each absorb is a single tail-word mix, and for a
// fixed left identifier the whole seed + self-side prefix collapses into
// one precomputed state. What remains per candidate is two fast64Mix
// rounds over a gathered tail array — a straight-line map a compiler can
// autovectorize.
//
// Bit-exactness contract: for any seed and NodeIds x, y,
//   Fast64PairBatch(seed, fast64Tail6(x)).raw(fast64Tail6(y))
//     == fast64Pair(seed, x.bytes(), y.bytes())
// — verified against the general path in tests/hash/fast64_batch_test.cpp.
// The batch lane is an evaluation-order change only; every hash value the
// protocol observes is byte-identical to the scalar reference.
#pragma once

#include <cstdint>
#include <span>

#include "hash/fast64.hpp"

namespace avmem::hashing {

/// The tail word fast64Absorb derives for a 6-byte (ip, port) wire
/// encoding: the sentinel bit shifted through 6 bytes, then the bytes in
/// big-endian (wire) order.
[[nodiscard]] constexpr std::uint64_t fast64Tail6(std::uint32_t ip,
                                                  std::uint16_t port) noexcept {
  return (1ull << 48) | (static_cast<std::uint64_t>(ip) << 16) | port;
}

/// The length fold for a 6-byte absorb (fast64Absorb xors the byte count
/// into the top byte of the tail).
inline constexpr std::uint64_t kFast64Len6 = 6ull << 56;

/// H(x, ·) for a fixed seed and left identifier, two mixes per candidate.
class Fast64PairBatch {
 public:
  /// `tailX` = fast64Tail6 of the left identifier. The constructor folds
  /// the seed round, the x-side absorb, and the domain-separation round
  /// into one state; see fast64Pair for the steps being collapsed.
  constexpr Fast64PairBatch(std::uint64_t seed, std::uint64_t tailX) noexcept
      : state_(fast64Mix(
            fast64Mix(fast64Mix(seed ^ 0x9E3779B97F4A7C15ull) ^ tailX ^
                      kFast64Len6) +
            0xD1B54A32D192ED03ull)) {}

  /// Raw 64-bit H(x, y) — bit-identical to fast64Pair on the wire bytes.
  [[nodiscard]] constexpr std::uint64_t raw(std::uint64_t tailY) const
      noexcept {
    return fast64Mix(fast64Mix(state_ ^ tailY ^ kFast64Len6));
  }

  /// Normalized H(x, y) in [0, 1) — what PairHasher returns for kFast64.
  [[nodiscard]] constexpr double one(std::uint64_t tailY) const noexcept {
    return normalizeU64(raw(tailY));
  }

  /// out[i] = normalized H(x, y_i) for a gathered tail array. The main
  /// loop processes 8 independent lanes per iteration so the compiler can
  /// vectorize the mix chain. Requires out.size() >= tailsY.size().
  void hashMany(std::span<const std::uint64_t> tailsY,
                std::span<double> out) const noexcept {
    const std::size_t n = tailsY.size();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      for (std::size_t k = 0; k < 8; ++k) {  // independent lanes
        out[i + k] = one(tailsY[i + k]);
      }
    }
    for (; i < n; ++i) out[i] = one(tailsY[i]);
  }

 private:
  std::uint64_t state_;
};

/// H(·, y) for a fixed seed and *right* identifier — the transpose of
/// Fast64PairBatch. AVMON materializes the monitor set of one target by
/// scanning every candidate monitor m and testing H(m, target), so here
/// the left operand is the one that varies. Only the seed round and the
/// target-side tail fold can be precomputed (the varying absorb sits
/// between them in the mix chain), leaving four mixes per candidate — still
/// a straight-line gathered map the compiler can vectorize.
///
/// Bit-exactness contract: for any seed and NodeIds x, y,
///   Fast64TargetBatch(seed, fast64Tail6(y)).raw(fast64Tail6(x))
///     == fast64Pair(seed, x.bytes(), y.bytes())
/// — verified in tests/hash/fast64_batch_test.cpp.
class Fast64TargetBatch {
 public:
  /// `tailY` = fast64Tail6 of the fixed right identifier (the target).
  constexpr Fast64TargetBatch(std::uint64_t seed, std::uint64_t tailY) noexcept
      : seeded_(fast64Mix(seed ^ 0x9E3779B97F4A7C15ull)),
        tailYLen_(tailY ^ kFast64Len6) {}

  /// Raw 64-bit H(x, y) — bit-identical to fast64Pair on the wire bytes.
  [[nodiscard]] constexpr std::uint64_t raw(std::uint64_t tailX) const
      noexcept {
    return fast64Mix(
        fast64Mix(fast64Mix(fast64Mix(seeded_ ^ tailX ^ kFast64Len6) +
                            0xD1B54A32D192ED03ull) ^
                  tailYLen_));
  }

  /// Normalized H(x, y) in [0, 1) — what PairHasher returns for kFast64.
  [[nodiscard]] constexpr double one(std::uint64_t tailX) const noexcept {
    return normalizeU64(raw(tailX));
  }

  /// out[i] = normalized H(x_i, y) for a gathered tail array, same lane
  /// structure as Fast64PairBatch::hashMany. Requires
  /// out.size() >= tailsX.size().
  void hashMany(std::span<const std::uint64_t> tailsX,
                std::span<double> out) const noexcept {
    const std::size_t n = tailsX.size();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      for (std::size_t k = 0; k < 8; ++k) {  // independent lanes
        out[i + k] = one(tailsX[i + k]);
      }
    }
    for (; i < n; ++i) out[i] = one(tailsX[i]);
  }

 private:
  std::uint64_t seeded_;
  std::uint64_t tailYLen_;
};

}  // namespace avmem::hashing
