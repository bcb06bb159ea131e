// MD5 correctness against the RFC 1321 test suite.
#include "hash/md5.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace avmem::hashing {
namespace {

// The seven vectors from RFC 1321 appendix A.5.
TEST(Md5Test, Rfc1321Vectors) {
  EXPECT_EQ(toHex(md5(std::string_view{})),
            "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(toHex(md5("a")), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(toHex(md5("abc")), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(toHex(md5("message digest")), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(toHex(md5("abcdefghijklmnopqrstuvwxyz")),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(toHex(md5("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz01"
                      "23456789")),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(toHex(md5("123456789012345678901234567890123456789012345678901234"
                      "56789012345678901234567890")),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5Test, IncrementalMatchesOneShot) {
  const std::string msg(300, 'q');
  Md5 h;
  h.update(std::string_view(msg).substr(0, 100));
  h.update(std::string_view(msg).substr(100, 100));
  h.update(std::string_view(msg).substr(200));
  EXPECT_EQ(h.finish(), md5(msg));
}

TEST(Md5Test, ResetRestoresEmptyState) {
  Md5 h;
  h.update("garbage");
  (void)h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(toHex(h.finish()), "900150983cd24fb0d6963f7d28e17f72");
}

TEST(Md5Test, PaddingBoundaries) {
  // Messages of 55/56 and 119/120 bytes sit on either side of the point
  // where 0x80 + length no longer fit the final block; 63/64 end on a
  // block edge. Reference digests from Python's hashlib.md5.
  const std::pair<std::size_t, const char*> kCases[] = {
      {55, "04364420e25c512fd958a70738aa8f72"},
      {56, "668a72d5ba17f08e62dabcafad6db14b"},
      {63, "7dc2ca208106a2f703567bdff99d8981"},
      {64, "c1bb4f81d892b2d57947682aeb252456"},
      {119, "ab347a5f68c8a443cfcddc633f12c24f"},
      {120, "fb98667f98096de92620b64f46e1c5b5"},
  };
  for (const auto& [n, hex] : kCases) {
    const std::string msg(n, 'x');
    EXPECT_EQ(toHex(md5(msg)), hex) << n << " bytes";
    // reset() keeps the old buffer bytes; padding must overwrite them.
    Md5 h;
    h.update(std::string(127, '\xFF'));
    (void)h.finish();
    h.reset();
    h.update(msg);
    EXPECT_EQ(toHex(h.finish()), hex) << n << " bytes after reset";
  }
}

}  // namespace
}  // namespace avmem::hashing
