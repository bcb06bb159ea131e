// The kFast64 pair-hash backend: consistency, order sensitivity, and
// uniformity on [0, 1) — the three properties the AVMEM predicate needs
// from H.
#include "hash/fast64.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "hash/pair_hash.hpp"
#include "sim/random.hpp"

namespace avmem::hashing {
namespace {

std::array<std::uint8_t, 6> idBytes(sim::Rng& rng) {
  std::array<std::uint8_t, 6> id{};
  for (auto& b : id) b = static_cast<std::uint8_t>(rng.next());
  return id;
}

TEST(Fast64Test, ConsistentAcrossCalls) {
  const std::array<std::uint8_t, 6> a{10, 0, 0, 1, 4, 210};
  const std::array<std::uint8_t, 6> b{10, 0, 0, 2, 8, 161};
  const std::uint64_t h1 = fast64Pair(1, a, b);
  const std::uint64_t h2 = fast64Pair(1, a, b);
  EXPECT_EQ(h1, h2);

  const PairHasher hasher(PairHashAlgorithm::kFast64, 1);
  EXPECT_DOUBLE_EQ(hasher(a, b), hasher(a, b));
  EXPECT_DOUBLE_EQ(hasher(a, b), normalizeU64(h1));
}

TEST(Fast64Test, OrderSensitive) {
  sim::Rng rng(11);
  int symmetric = 0;
  for (int k = 0; k < 1000; ++k) {
    const auto a = idBytes(rng);
    const auto b = idBytes(rng);
    if (a == b) continue;
    if (fast64Pair(7, a, b) == fast64Pair(7, b, a)) ++symmetric;
  }
  EXPECT_EQ(symmetric, 0);
}

TEST(Fast64Test, SeedSeparatesDeployments) {
  sim::Rng rng(13);
  int collisions = 0;
  for (int k = 0; k < 1000; ++k) {
    const auto a = idBytes(rng);
    const auto b = idBytes(rng);
    if (fast64Pair(1, a, b) == fast64Pair(2, a, b)) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

TEST(Fast64Test, ConcatenationBoundaryMatters) {
  // "ab" + "c" must not collide with "a" + "bc": absorption is
  // per-identifier, not over the raw concatenation.
  const std::array<std::uint8_t, 2> ab{'a', 'b'};
  const std::array<std::uint8_t, 1> c{'c'};
  const std::array<std::uint8_t, 1> a{'a'};
  const std::array<std::uint8_t, 2> bc{'b', 'c'};
  EXPECT_NE(fast64Pair(1, ab, c), fast64Pair(1, a, bc));
}

TEST(Fast64Test, UniformOnUnitInterval) {
  // 100k hashed pairs into 64 bins: every bin within ~5 sigma of the
  // expected 1562.5, mean close to 1/2. Catches gross bias, not subtle
  // spectral defects (which the predicate does not care about).
  sim::Rng rng(17);
  constexpr int kSamples = 100'000;
  constexpr int kBins = 64;
  std::vector<int> bins(kBins, 0);
  double sum = 0.0;
  const auto a = idBytes(rng);
  for (int k = 0; k < kSamples; ++k) {
    const auto b = idBytes(rng);
    const double u = normalizeU64(fast64Pair(99, a, b));
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    ++bins[static_cast<int>(u * kBins)];
  }
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
  constexpr double kExpected = static_cast<double>(kSamples) / kBins;
  const double sigma = std::sqrt(kExpected * (1.0 - 1.0 / kBins));
  for (int j = 0; j < kBins; ++j) {
    EXPECT_NEAR(bins[j], kExpected, 5.0 * sigma) << "bin " << j;
  }
}

TEST(Fast64Test, DigestBackendsIgnoreTheSeed) {
  const std::array<std::uint8_t, 6> a{1, 2, 3, 4, 5, 6};
  const std::array<std::uint8_t, 6> b{9, 8, 7, 6, 5, 4};
  EXPECT_DOUBLE_EQ((PairHasher(PairHashAlgorithm::kSha1, 1)(a, b)),
                   (PairHasher(PairHashAlgorithm::kSha1, 2)(a, b)));
}

}  // namespace
}  // namespace avmem::hashing
