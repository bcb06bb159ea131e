#include "hash/md5.hpp"

#include <bit>
#include <cstring>

namespace avmem::hashing {

namespace {

// Per-round left-rotate amounts (RFC 1321, section 3.4).
constexpr int kShift[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

// K[i] = floor(2^32 * |sin(i + 1)|), precomputed (RFC 1321).
constexpr std::uint32_t kSine[64] = {
    0xd76aa478u, 0xe8c7b756u, 0x242070dbu, 0xc1bdceeeu, 0xf57c0fafu,
    0x4787c62au, 0xa8304613u, 0xfd469501u, 0x698098d8u, 0x8b44f7afu,
    0xffff5bb1u, 0x895cd7beu, 0x6b901122u, 0xfd987193u, 0xa679438eu,
    0x49b40821u, 0xf61e2562u, 0xc040b340u, 0x265e5a51u, 0xe9b6c7aau,
    0xd62f105du, 0x02441453u, 0xd8a1e681u, 0xe7d3fbc8u, 0x21e1cde6u,
    0xc33707d6u, 0xf4d50d87u, 0x455a14edu, 0xa9e3e905u, 0xfcefa3f8u,
    0x676f02d9u, 0x8d2a4c8au, 0xfffa3942u, 0x8771f681u, 0x6d9d6122u,
    0xfde5380cu, 0xa4beea44u, 0x4bdecfa9u, 0xf6bb4b60u, 0xbebfbc70u,
    0x289b7ec6u, 0xeaa127fau, 0xd4ef3085u, 0x04881d05u, 0xd9d4d039u,
    0xe6db99e5u, 0x1fa27cf8u, 0xc4ac5665u, 0xf4292244u, 0x432aff97u,
    0xab9423a7u, 0xfc93a039u, 0x655b59c3u, 0x8f0ccc92u, 0xffeff47du,
    0x85845dd1u, 0x6fa87e4fu, 0xfe2ce6e0u, 0xa3014314u, 0x4e0811a1u,
    0xf7537e82u, 0xbd3af235u, 0x2ad7d2bbu, 0xeb86d391u};

}  // namespace

void Md5::reset() noexcept {
  state_ = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};
  totalBytes_ = 0;
  bufferLen_ = 0;
}

void Md5::processBlock(const std::uint8_t* block) noexcept {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = std::uint32_t{block[i * 4]} | (std::uint32_t{block[i * 4 + 1]} << 8) |
           (std::uint32_t{block[i * 4 + 2]} << 16) |
           (std::uint32_t{block[i * 4 + 3]} << 24);
  }

  std::uint32_t a = state_[0];
  std::uint32_t b = state_[1];
  std::uint32_t c = state_[2];
  std::uint32_t d = state_[3];

  for (int i = 0; i < 64; ++i) {
    std::uint32_t f = 0;
    int g = 0;
    if (i < 16) {
      f = (b & c) | (~b & d);
      g = i;
    } else if (i < 32) {
      f = (d & b) | (~d & c);
      g = (5 * i + 1) % 16;
    } else if (i < 48) {
      f = b ^ c ^ d;
      g = (3 * i + 5) % 16;
    } else {
      f = c ^ (b | ~d);
      g = (7 * i) % 16;
    }
    const std::uint32_t tmp = d;
    d = c;
    c = b;
    b = b + std::rotl(a + f + kSine[i] + m[g], kShift[i]);
    a = tmp;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::update(std::span<const std::uint8_t> data) noexcept {
  totalBytes_ += data.size();
  std::size_t offset = 0;

  if (bufferLen_ > 0) {
    const std::size_t need = 64 - bufferLen_;
    const std::size_t take = std::min(need, data.size());
    std::memcpy(buffer_.data() + bufferLen_, data.data(), take);
    bufferLen_ += take;
    offset += take;
    if (bufferLen_ == 64) {
      processBlock(buffer_.data());
      bufferLen_ = 0;
    }
  }

  while (offset + 64 <= data.size()) {
    processBlock(data.data() + offset);
    offset += 64;
  }

  if (offset < data.size()) {
    const std::size_t rest = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, rest);
    bufferLen_ = rest;
  }
}

Md5Digest Md5::finish() noexcept {
  const std::uint64_t bitLen = totalBytes_ * 8;

  // Pad in place: the 0x80 terminator, zeros up to 56 mod 64 (spilling
  // into a second block when fewer than 8 bytes remain), then the length.
  buffer_[bufferLen_++] = 0x80;
  if (bufferLen_ > 56) {
    std::memset(buffer_.data() + bufferLen_, 0, 64 - bufferLen_);
    processBlock(buffer_.data());
    bufferLen_ = 0;
  }
  std::memset(buffer_.data() + bufferLen_, 0, 56 - bufferLen_);
  // Length is appended little-endian, unlike SHA-1.
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bitLen >> (8 * i));
  }
  processBlock(buffer_.data());

  Md5Digest digest{};
  for (int i = 0; i < 4; ++i) {
    digest[i * 4] = static_cast<std::uint8_t>(state_[i]);
    digest[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[i * 4 + 3] = static_cast<std::uint8_t>(state_[i] >> 24);
  }
  return digest;
}

Md5Digest md5(std::span<const std::uint8_t> data) noexcept {
  Md5 h;
  h.update(data);
  return h.finish();
}

Md5Digest md5(std::string_view data) noexcept {
  Md5 h;
  h.update(data);
  return h.finish();
}

std::string toHex(const Md5Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(digest.size() * 2);
  for (const std::uint8_t b : digest) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

}  // namespace avmem::hashing
