// The consistent pair hash H(id(x), id(y)) at the heart of the AVMEM
// predicate (paper eq. 1).
//
// H must be (a) fixed and well-known, so that any third party can verify a
// membership claim, and (b) order-sensitive: the relation M(x, y) is
// directional ("y is a valid entry in x's membership list"). We hash the
// concatenation of the two identifiers' wire encodings.
//
// Two backends satisfy the contract:
//  * kSha1 — the paper-fidelity default used throughout the evaluation;
//  * kFast64 — a seeded splitmix-style mixer (hash/fast64.hpp), the scale-
//    mode option: same consistency and uniformity, no cryptographic cost.
//
// Lanes. One pair (operator()) takes sha1Pair6 (SHA-NI where the CPU has
// it, else a scalar one-block kernel) or fast64Pair. Many pairs sharing
// one operand (hashMany: a list owner's Discovery and Refresh scans, the
// candidate feed, AVMON's monitor scans) take sha1Pair6Many (sixteen
// pairs per AVX-512 block where the CPU has AVX-512F, else sha1Pair6 per
// pair) or the kFast64 batch lanes (hash/fast64_batch.hpp). Every lane
// returns the same bits for the same pair, so the lane a host picks is
// invisible to the protocol.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "hash/fast64.hpp"
#include "hash/fast64_batch.hpp"
#include "hash/normalized.hpp"
#include "hash/sha1.hpp"

namespace avmem::hashing {

/// Which function backs the pair hash. The values are fixed because
/// checkpoint config fingerprints mix them in.
enum class PairHashAlgorithm : std::uint8_t {
  kSha1 = 0,
  kFast64 = 2,
};

[[nodiscard]] constexpr const char* toString(PairHashAlgorithm a) noexcept {
  switch (a) {
    case PairHashAlgorithm::kSha1:
      return "sha1";
    case PairHashAlgorithm::kFast64:
      return "fast64";
  }
  return "?";
}

/// Computes H(a, b) in [0, 1) from two identifier wire encodings.
///
/// The hash is a pure function of (algorithm, seed, a, b): no system state,
/// no external inputs — this is what makes the AVMEM predicate *consistent*.
/// The seed only participates in kFast64; SHA-1 stays seedless so
/// paper-figure runs are unaffected by it.
///
/// A PairHasher is a value with no mutable state, so any number of threads
/// may call it at once. Nothing is memoized: a 6+6-byte SHA-1 pair is one
/// compression (sha1Pair6), and in a paper-1442 run a shared memo map's
/// probes cost more than the compressions they saved while holding ~27 MB.
class PairHasher {
 public:
  explicit PairHasher(PairHashAlgorithm algorithm = PairHashAlgorithm::kSha1,
                      std::uint64_t seed = kFast64DefaultSeed) noexcept
      : algorithm_(algorithm), seed_(seed) {}

  /// H(a, b). Note H(a, b) != H(b, a) in general (directional relation).
  [[nodiscard]] double operator()(std::span<const std::uint8_t> a,
                                  std::span<const std::uint8_t> b) const
      noexcept {
    switch (algorithm_) {
      case PairHashAlgorithm::kFast64:
        return normalizeU64(fast64Pair(seed_, a, b));
      case PairHashAlgorithm::kSha1:
      default: {
        // NodeId wire encodings (every simulation caller) take the
        // one-block kernel; any other length streams through Sha1.
        if (a.size() == 6 && b.size() == 6) {
          return normalizeU64(sha1Pair6(a.first<6>(), b.first<6>()));
        }
        Sha1 h;
        h.update(a);
        h.update(b);
        return normalizeDigest(h.finish());
      }
    }
  }

  /// H over many pairs that share one operand: out[i] = H(fixed,
  /// others[i]) for PairSide::kLeft, H(others[i], fixed) for
  /// PairSide::kRight. Identifiers are id words, fast64Tail6 of each
  /// NodeId, for either algorithm (sha1Pair6Many reads their low 48 bits,
  /// the wire encoding). Bit-identical to operator() on the wire bytes of
  /// every pair: kFast64 runs the two- or four-mix batch lanes
  /// (fast64_batch.hpp), kSha1 the multi-pair SHA-1 entry.
  /// Requires out.size() >= others.size().
  void hashMany(std::uint64_t fixed, std::span<const std::uint64_t> others,
                PairSide fixedSide, std::span<double> out) const noexcept {
    if (algorithm_ == PairHashAlgorithm::kFast64) {
      if (fixedSide == PairSide::kLeft) {
        Fast64PairBatch(seed_, fixed).hashMany(others, out);
      } else {
        Fast64TargetBatch(seed_, fixed).hashMany(others, out);
      }
      return;
    }
    std::array<std::uint64_t, 256> raw;
    for (std::size_t base = 0; base < others.size(); base += raw.size()) {
      const std::size_t len = std::min(raw.size(), others.size() - base);
      sha1Pair6Many(fixed, others.subspan(base, len), fixedSide,
                    {raw.data(), len});
      for (std::size_t i = 0; i < len; ++i) {
        out[base + i] = normalizeU64(raw[i]);
      }
    }
  }

  [[nodiscard]] PairHashAlgorithm algorithm() const noexcept {
    return algorithm_;
  }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  PairHashAlgorithm algorithm_;
  std::uint64_t seed_;
};

}  // namespace avmem::hashing
