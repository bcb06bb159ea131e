// SHA-1 correctness against FIPS 180-1 / RFC 3174 test vectors.
#include "hash/sha1.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace avmem::hashing {
namespace {

TEST(Sha1Test, EmptyString) {
  EXPECT_EQ(toHex(sha1(std::string_view{})),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, Abc) {
  EXPECT_EQ(toHex(sha1("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, TwoBlockMessage) {
  EXPECT_EQ(
      toHex(sha1("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionAs) {
  Sha1 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(toHex(h.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, QuickBrownFox) {
  EXPECT_EQ(toHex(sha1("The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  const std::string msg = "incremental hashing must equal one-shot hashing";
  Sha1 h;
  for (const char c : msg) {
    h.update(std::string_view(&c, 1));
  }
  EXPECT_EQ(h.finish(), sha1(msg));
}

TEST(Sha1Test, SplitAtEveryBoundaryMatchesOneShot) {
  // Exercise the 64-byte block buffering across all split positions of a
  // message spanning multiple blocks.
  std::string msg;
  for (int i = 0; i < 150; ++i) msg.push_back(static_cast<char>('a' + i % 26));
  const Sha1Digest expected = sha1(msg);
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha1 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finish(), expected) << "split at " << split;
  }
}

TEST(Sha1Test, ResetRestoresEmptyState) {
  Sha1 h;
  h.update("garbage");
  (void)h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(toHex(h.finish()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, LengthPaddingBoundaries) {
  // Messages of 55/56 and 119/120 bytes sit on either side of the point
  // where 0x80 + length no longer fit the final block; 63/64 end on a
  // block edge. Reference digests from Python's hashlib.sha1.
  const std::pair<std::size_t, const char*> kCases[] = {
      {55, "cef734ba81a024479e09eb5a75b6ddae62e6abf1"},
      {56, "901305367c259952f4e7af8323f480d59f81335b"},
      {63, "0ddc4e0cccd9a12850deb5abb0853a4425559fec"},
      {64, "bb2fa3ee7afb9f54c6dfb5d021f14b1ffe40c163"},
      {119, "4300320394f7ee239bcdce7d3b8bcee173a0cd5c"},
      {120, "ceb2821639c4b6dcb10bce0e522ca2e608ce056d"},
  };
  for (const auto& [n, hex] : kCases) {
    const std::string msg(n, 'x');
    EXPECT_EQ(toHex(sha1(msg)), hex) << n << " bytes";
    // reset() keeps the old buffer bytes; padding must overwrite them.
    Sha1 h;
    h.update(std::string(127, '\xFF'));
    (void)h.finish();
    h.reset();
    h.update(msg);
    EXPECT_EQ(toHex(h.finish()), hex) << n << " bytes after reset";
  }
}

}  // namespace
}  // namespace avmem::hashing
