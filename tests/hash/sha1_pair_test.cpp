// The one-block SHA-1 pair kernel (sha1Pair6) against the streaming Sha1
// class: every lane this CPU can run must return the top 64 digest bits of
// SHA-1(a || b) for every pair of NodeId wire encodings, because the AVMEM
// predicate and AVMON's monitor relation must not depend on which lane a
// host picked.
#include "hash/sha1.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/node_id.hpp"
#include "hash/normalized.hpp"
#include "hash/pair_hash.hpp"

namespace avmem::hashing {
namespace {

using Id6 = std::array<std::uint8_t, 6>;
using Lane = std::uint64_t (*)(std::span<const std::uint8_t, 6>,
                               std::span<const std::uint8_t, 6>) noexcept;

// makeNodeIds(256, seed) for three seeds plus the all-zero and all-ones
// endpoints (0.0.0.0:0 and 255.255.255.255:65535).
std::vector<Id6> testIds() {
  std::vector<Id6> ids;
  for (const std::uint64_t seed : {1ull, 20070101ull, 4242ull}) {
    for (const core::NodeId& id : core::makeNodeIds(256, seed)) {
      ids.push_back(id.bytes());
    }
  }
  ids.push_back(core::NodeId{0u, 0}.bytes());
  ids.push_back(core::NodeId{0xFFFFFFFFu, 0xFFFF}.bytes());
  return ids;
}

std::array<std::uint8_t, 12> concat(const Id6& a, const Id6& b) {
  std::array<std::uint8_t, 12> ab{};
  std::copy(a.begin(), a.end(), ab.begin());
  std::copy(b.begin(), b.end(), ab.begin() + 6);
  return ab;
}

// The reference: top 64 bits of the one-shot digest of a || b.
std::uint64_t reference(const Id6& a, const Id6& b) {
  const Sha1Digest d = sha1(concat(a, b));
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v = (v << 8) | d[i];
  return v;
}

// Every ordered pair within each seed's 256 ids plus the two edge ids
// (the edges are paired with everything, both ways).
void expectLaneMatches(Lane lane) {
  const std::vector<Id6> ids = testIds();
  const std::size_t firstEdge = ids.size() - 2;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = 0; j < ids.size(); ++j) {
      const bool sameSeed = i / 256 == j / 256;
      if (!sameSeed && i < firstEdge && j < firstEdge) continue;
      ASSERT_EQ(lane(ids[i], ids[j]), reference(ids[i], ids[j]))
          << "pair (" << i << ", " << j << ")";
      ++checked;
    }
  }
  EXPECT_EQ(checked, 3u * 256 * 256 + 2 * 2 * ids.size() - 4);
}

TEST(Sha1PairTest, GenericLaneMatchesStreamingSha1) {
  expectLaneMatches(&sha1_lanes::pair6Generic);
}

TEST(Sha1PairTest, NiLaneMatchesStreamingSha1) {
  if (!sha1_lanes::niSupported()) {
    GTEST_SKIP() << "CPU has no SHA-NI";
  }
  expectLaneMatches(&sha1_lanes::pair6Ni);
}

TEST(Sha1PairTest, PairHasherSixByteSpansMatchDigest) {
  // Whichever lane sha1Pair6 picked, PairHasher's value is the normalized
  // digest of the 12-byte concatenation.
  const PairHasher h(PairHashAlgorithm::kSha1);
  const std::vector<Id6> ids = testIds();
  for (std::size_t i = 0; i + 1 < ids.size(); i += 17) {
    EXPECT_EQ(h(ids[i], ids[i + 1]),
              normalizeDigest(sha1(concat(ids[i], ids[i + 1]))))
        << "pair " << i;
  }
}

TEST(Sha1PairTest, PairHasherOtherLengthsStream) {
  // Spans other than 6 + 6 bytes take the streaming path; SHA-1("abc") and
  // SHA-1 of the quick-brown-fox sentence (FIPS 180-1 / common vectors),
  // normalized from their first eight digest bytes.
  const PairHasher h(PairHashAlgorithm::kSha1);
  const std::array<std::uint8_t, 1> a{'a'};
  const std::array<std::uint8_t, 2> bc{'b', 'c'};
  EXPECT_EQ(h(a, bc), normalizeU64(0xa9993e364706816aull));

  const std::string_view fox = "The quick brown fox jumps over the lazy dog";
  const auto* p = reinterpret_cast<const std::uint8_t*>(fox.data());
  EXPECT_EQ(h(std::span(p, 6), std::span(p + 6, fox.size() - 6)),
            normalizeU64(0x2fd4e1c67a2d28fcull));
}

}  // namespace
}  // namespace avmem::hashing
