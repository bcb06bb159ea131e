// Known-answer tests for snapshot::crc32, the checksum on every checkpoint
// section. The kernel folds 16-byte blocks through lookup tables; these
// tests hold it to the textbook bit-at-a-time recurrence, so a CRC value
// written by any earlier build still verifies.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/random.hpp"
#include "snapshot/snapshot_io.hpp"

namespace avmem::snapshot {
namespace {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), one bit at a time.
std::uint32_t bitwiseCrc32(const std::uint8_t* data, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> randomBytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

TEST(Crc32Test, KnownAnswers) {
  const char* check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check),
                  std::strlen(check)),
            0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  const std::uint8_t zero = 0;
  EXPECT_EQ(crc32(&zero, 1), 0xD202EF8Du);
}

TEST(Crc32Test, EveryShortLengthAtEveryOffsetMatchesTheBitwiseReference) {
  // Lengths 0..64 cover an empty block loop, one and several 16-byte
  // blocks, and every tail length; offsets 0..15 cover every alignment of
  // the word loads.
  const std::vector<std::uint8_t> bytes = randomBytes(16 + 64, 1);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::uint8_t* p = bytes.data() + offset;
      ASSERT_EQ(crc32(p, len), bitwiseCrc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, MultiMegabyteBufferMatchesTheBitwiseReference) {
  // Many blocks with a ragged tail.
  const std::vector<std::uint8_t> bytes = randomBytes((3u << 20) + 7, 2);
  EXPECT_EQ(crc32(bytes.data(), bytes.size()),
            bitwiseCrc32(bytes.data(), bytes.size()));
}

}  // namespace
}  // namespace avmem::snapshot
