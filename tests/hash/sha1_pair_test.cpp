// The one-block SHA-1 pair kernel (sha1Pair6) against the streaming Sha1
// class: every lane this CPU can run must return the top 64 digest bits of
// SHA-1(a || b) for every pair of NodeId wire encodings, because the AVMEM
// predicate and AVMON's monitor relation must not depend on which lane a
// host picked. The multi-pair entry (sha1Pair6Many) must in turn equal
// sha1Pair6 pair for pair, on either side, at every batch length.
#include "hash/sha1.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/node_id.hpp"
#include "hash/fast64_batch.hpp"
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

using ManyLane = void (*)(std::uint64_t, std::span<const std::uint64_t>,
                          PairSide, std::span<std::uint64_t>) noexcept;

// The id word of a NodeId, as the simulation passes it: fast64Tail6, whose
// sentinel bit 48 the SHA-1 lanes must ignore.
std::uint64_t wordOf(const core::NodeId& id) {
  return fast64Tail6(id.ip, id.port);
}

std::vector<core::NodeId> manyIds() {
  std::vector<core::NodeId> ids = core::makeNodeIds(300, 20070101);
  ids.push_back(core::NodeId{0u, 0});
  ids.push_back(core::NodeId{0xFFFFFFFFu, 0xFFFF});
  return ids;
}

// Every batch length 0..48 (every n mod 16, and n < 16), plus the whole
// id list, with each id of a sample as the fixed operand on both sides.
void expectManyLaneMatches(ManyLane lane) {
  const std::vector<core::NodeId> ids = manyIds();
  std::vector<std::uint64_t> words;
  for (const core::NodeId& id : ids) words.push_back(wordOf(id));
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 48; ++n) lengths.push_back(n);
  lengths.push_back(ids.size());
  for (const std::size_t fixedAt : {std::size_t{0}, std::size_t{7},
                                    ids.size() - 2, ids.size() - 1}) {
    const core::NodeId& fixed = ids[fixedAt];
    for (const std::size_t n : lengths) {
      // Start each batch at a different offset so lanes see varied ids.
      const std::size_t off = (n * 5) % (ids.size() - n + 1);
      const std::span<const std::uint64_t> others(words.data() + off, n);
      for (const PairSide side : {PairSide::kLeft, PairSide::kRight}) {
        std::vector<std::uint64_t> out(n + 1, 0xDEADull);
        lane(wordOf(fixed), others, side, {out.data(), n});
        for (std::size_t i = 0; i < n; ++i) {
          const auto other = ids[off + i].bytes();
          const std::uint64_t want =
              side == PairSide::kLeft ? sha1Pair6(fixed.bytes(), other)
                                      : sha1Pair6(other, fixed.bytes());
          ASSERT_EQ(out[i], want)
              << "fixed " << fixedAt << " n " << n << " i " << i
              << (side == PairSide::kLeft ? " left" : " right");
        }
        EXPECT_EQ(out[n], 0xDEADull) << "wrote past n = " << n;
      }
    }
  }
}

TEST(Sha1PairManyTest, LoopLaneMatchesSha1Pair6) {
  expectManyLaneMatches(&sha1_lanes::pair6ManyLoop);
}

TEST(Sha1PairManyTest, Avx512LaneMatchesSha1Pair6) {
  if (!sha1_lanes::avx512Supported()) {
    GTEST_SKIP() << "CPU has no AVX-512F";
  }
  expectManyLaneMatches(&sha1_lanes::pair6ManyAvx512);
}

TEST(Sha1PairManyTest, DispatchedEntryMatchesSha1Pair6) {
  expectManyLaneMatches(&sha1Pair6Many);
}

TEST(Sha1PairManyTest, PairHasherHashManyMatchesScalarOnBothSides) {
  // Both algorithms: hashMany over id words equals operator() on the wire
  // bytes, bit for bit, with the fixed id on either side and a length
  // that spans more than one internal chunk.
  const std::vector<core::NodeId> ids = manyIds();
  std::vector<std::uint64_t> words;
  for (const core::NodeId& id : ids) words.push_back(wordOf(id));
  for (const PairHashAlgorithm algo :
       {PairHashAlgorithm::kSha1, PairHashAlgorithm::kFast64}) {
    const PairHasher h(algo, 0x5EEDull);
    for (const std::size_t fixedAt : {std::size_t{3}, ids.size() - 1}) {
      const core::NodeId& fixed = ids[fixedAt];
      for (const PairSide side : {PairSide::kLeft, PairSide::kRight}) {
        std::vector<double> out(ids.size());
        h.hashMany(wordOf(fixed), words, side, out);
        for (std::size_t i = 0; i < ids.size(); ++i) {
          const double want = side == PairSide::kLeft
                                  ? h(fixed.bytes(), ids[i].bytes())
                                  : h(ids[i].bytes(), fixed.bytes());
          ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                    std::bit_cast<std::uint64_t>(want))
              << toString(algo) << " fixed " << fixedAt << " i " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace avmem::hashing
