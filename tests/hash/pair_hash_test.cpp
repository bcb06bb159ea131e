// Properties of the normalized pair hash H(id(x), id(y)):
// consistency, direction-sensitivity, uniformity, and caching.
#include "hash/pair_hash.hpp"

#include <gtest/gtest.h>

#include "hash/normalized.hpp"
#include "sim/random.hpp"

namespace avmem::hashing {
namespace {

std::array<std::uint8_t, 6> idBytes(std::uint32_t ip, std::uint16_t port) {
  return {static_cast<std::uint8_t>(ip >> 24),
          static_cast<std::uint8_t>(ip >> 16),
          static_cast<std::uint8_t>(ip >> 8),
          static_cast<std::uint8_t>(ip),
          static_cast<std::uint8_t>(port >> 8),
          static_cast<std::uint8_t>(port)};
}

TEST(NormalizedTest, RangeAndMonotonicity) {
  Sha1Digest zeros{};
  EXPECT_DOUBLE_EQ(normalizeDigest(zeros), 0.0);

  Sha1Digest ones{};
  ones.fill(0xFF);
  EXPECT_LT(normalizeDigest(ones), 1.0);
  EXPECT_GT(normalizeDigest(ones), 0.9999999999);

  // Larger prefix integer -> larger normalized value.
  Sha1Digest a{};
  Sha1Digest b{};
  a[0] = 0x01;
  b[0] = 0x02;
  EXPECT_LT(normalizeDigest(a), normalizeDigest(b));
}

TEST(PairHashTest, ConsistencyAcrossInstances) {
  // Two independent hashers (two "parties") must agree on every pair —
  // the foundation of AVMEM's verifiability.
  PairHasher h1;
  PairHasher h2;
  const auto a = idBytes(0x0A000001, 1000);
  const auto b = idBytes(0x0A000002, 2000);
  EXPECT_DOUBLE_EQ(h1(a, b), h2(a, b));
}

TEST(PairHashTest, DirectionSensitive) {
  // M(x, y) is directional: H(a, b) != H(b, a) in general.
  PairHasher h;
  const auto a = idBytes(0x0A000001, 1000);
  const auto b = idBytes(0x0A000002, 2000);
  EXPECT_NE(h(a, b), h(b, a));
}

TEST(PairHashTest, InRange) {
  PairHasher h;
  sim::Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const auto a = idBytes(static_cast<std::uint32_t>(rng.next()),
                           static_cast<std::uint16_t>(rng.next()));
    const auto b = idBytes(static_cast<std::uint32_t>(rng.next()),
                           static_cast<std::uint16_t>(rng.next()));
    const double v = h(a, b);
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(PairHashTest, ApproximatelyUniform) {
  // With f(.,.) = p, the predicate must hold with probability ~p — i.e.
  // H must be uniform. Check decile occupancy over many random pairs.
  PairHasher h;
  sim::Rng rng(7);
  std::array<int, 10> buckets{};
  constexpr int kPairs = 20000;
  for (int i = 0; i < kPairs; ++i) {
    const auto a = idBytes(static_cast<std::uint32_t>(rng.next()),
                           static_cast<std::uint16_t>(rng.next()));
    const auto b = idBytes(static_cast<std::uint32_t>(rng.next()),
                           static_cast<std::uint16_t>(rng.next()));
    const double v = h(a, b);
    ++buckets[std::min(static_cast<int>(v * 10), 9)];
  }
  for (const int count : buckets) {
    // Expected 2000 per decile; 4-sigma tolerance ~ 180.
    EXPECT_NEAR(count, kPairs / 10, 200);
  }
}

}  // namespace
}  // namespace avmem::hashing
