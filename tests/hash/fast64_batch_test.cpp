// The batched kFast64 lane: byte-equivalence against the general
// fast64Pair path is its entire contract (hash/fast64_batch.hpp) — the
// plan-phase kernels that use it may only change evaluation order, never
// a single hash value the protocol observes.
#include "hash/fast64_batch.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "core/node_id.hpp"
#include "hash/fast64.hpp"
#include "hash/pair_hash.hpp"
#include "sim/random.hpp"

namespace avmem::hashing {
namespace {

core::NodeId randomId(sim::Rng& rng) {
  return {static_cast<std::uint32_t>(rng.next()),
          static_cast<std::uint16_t>(rng.next())};
}

TEST(Fast64BatchTest, Tail6MatchesGeneralAbsorbTail) {
  // fast64Tail6 must reproduce the tail word fast64Absorb derives from
  // the 6-byte wire encoding: sentinel bit, then bytes big-endian.
  sim::Rng rng(3);
  for (int k = 0; k < 100; ++k) {
    const core::NodeId id = randomId(rng);
    const auto bytes = id.bytes();
    std::uint64_t tail = 1;
    for (const std::uint8_t b : bytes) tail = (tail << 8) | b;
    EXPECT_EQ(fast64Tail6(id.ip, id.port), tail);
  }
}

TEST(Fast64BatchTest, RawMatchesFast64PairBitForBit) {
  sim::Rng rng(7);
  constexpr std::array<std::uint64_t, 4> kSeeds{
      0, 1, kFast64DefaultSeed, 0xFFFFFFFFFFFFFFFFull};
  for (const std::uint64_t seed : kSeeds) {
    for (int k = 0; k < 200; ++k) {
      const core::NodeId x = randomId(rng);
      const core::NodeId y = randomId(rng);
      const Fast64PairBatch batch(seed, fast64Tail6(x.ip, x.port));
      const std::uint64_t expected = fast64Pair(seed, x.bytes(), y.bytes());
      EXPECT_EQ(batch.raw(fast64Tail6(y.ip, y.port)), expected)
          << "seed " << seed << " pair " << k;
    }
  }
}

TEST(Fast64BatchTest, OneMatchesPairHasher) {
  // one() is what the kernels substitute for PairHasher::operator() on
  // the kFast64 backend.
  const std::uint64_t seed = 42;
  const PairHasher hasher(PairHashAlgorithm::kFast64, seed);
  sim::Rng rng(11);
  for (int k = 0; k < 200; ++k) {
    const core::NodeId x = randomId(rng);
    const core::NodeId y = randomId(rng);
    const Fast64PairBatch batch(seed, fast64Tail6(x.ip, x.port));
    const double got = batch.one(fast64Tail6(y.ip, y.port));
    const double expected = hasher(x.bytes(), y.bytes());
    // Bit equality, not tolerance: the batch lane is the same function.
    EXPECT_EQ(got, expected) << "pair " << k;
  }
}

TEST(Fast64BatchTest, HashManyMatchesOneAtEveryLength) {
  // Exercise the 8-wide (or SIMD) main loop plus every tail length.
  const std::uint64_t seed = 99;
  sim::Rng rng(13);
  const core::NodeId x = randomId(rng);
  const Fast64PairBatch batch(seed, fast64Tail6(x.ip, x.port));
  for (const std::size_t n : {0u, 1u, 3u, 7u, 8u, 9u, 16u, 31u, 257u}) {
    std::vector<std::uint64_t> tails(n);
    for (auto& t : tails) {
      const core::NodeId y = randomId(rng);
      t = fast64Tail6(y.ip, y.port);
    }
    std::vector<double> out(n, -1.0);
    batch.hashMany(tails, out);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], batch.one(tails[i])) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Fast64TargetBatchTest, RawMatchesFast64PairBitForBit) {
  // The transposed kernel: right identifier fixed, left varies (the AVMON
  // monitor-materialization scan shape).
  sim::Rng rng(17);
  constexpr std::array<std::uint64_t, 4> kSeeds{
      0, 1, kFast64DefaultSeed, 0xFFFFFFFFFFFFFFFFull};
  for (const std::uint64_t seed : kSeeds) {
    for (int k = 0; k < 200; ++k) {
      const core::NodeId x = randomId(rng);
      const core::NodeId y = randomId(rng);
      const Fast64TargetBatch batch(seed, fast64Tail6(y.ip, y.port));
      const std::uint64_t expected = fast64Pair(seed, x.bytes(), y.bytes());
      EXPECT_EQ(batch.raw(fast64Tail6(x.ip, x.port)), expected)
          << "seed " << seed << " pair " << k;
    }
  }
}

TEST(Fast64TargetBatchTest, OneMatchesPairHasher) {
  const std::uint64_t seed = 42;
  const PairHasher hasher(PairHashAlgorithm::kFast64, seed);
  sim::Rng rng(19);
  for (int k = 0; k < 200; ++k) {
    const core::NodeId x = randomId(rng);
    const core::NodeId y = randomId(rng);
    const Fast64TargetBatch batch(seed, fast64Tail6(y.ip, y.port));
    const double got = batch.one(fast64Tail6(x.ip, x.port));
    const double expected = hasher(x.bytes(), y.bytes());
    EXPECT_EQ(got, expected) << "pair " << k;
  }
}

TEST(Fast64TargetBatchTest, HashManyMatchesOneAtEveryLength) {
  const std::uint64_t seed = 99;
  sim::Rng rng(23);
  const core::NodeId y = randomId(rng);
  const Fast64TargetBatch batch(seed, fast64Tail6(y.ip, y.port));
  for (const std::size_t n : {0u, 1u, 3u, 7u, 8u, 9u, 16u, 31u, 257u}) {
    std::vector<std::uint64_t> tails(n);
    for (auto& t : tails) {
      const core::NodeId x = randomId(rng);
      t = fast64Tail6(x.ip, x.port);
    }
    std::vector<double> out(n, -1.0);
    batch.hashMany(tails, out);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], batch.one(tails[i])) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Fast64TargetBatchTest, AgreesWithPairBatchTranspose) {
  // The two kernels are transposes of the same function: fixing x in one
  // and y in the other must land on the identical H(x, y).
  const std::uint64_t seed = kFast64DefaultSeed;
  sim::Rng rng(29);
  for (int k = 0; k < 100; ++k) {
    const core::NodeId x = randomId(rng);
    const core::NodeId y = randomId(rng);
    const Fast64PairBatch left(seed, fast64Tail6(x.ip, x.port));
    const Fast64TargetBatch right(seed, fast64Tail6(y.ip, y.port));
    EXPECT_EQ(left.raw(fast64Tail6(y.ip, y.port)),
              right.raw(fast64Tail6(x.ip, x.port)))
        << "pair " << k;
  }
}

}  // namespace
}  // namespace avmem::hashing
