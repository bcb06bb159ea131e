#include "hash/sha1.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <utility>

// The SHA-NI and AVX-512 lanes need GCC/Clang target attributes on x86;
// everything else compiles the generic lanes only.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define AVMEM_SHA1_X86_LANES 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace avmem::hashing {

namespace {

constexpr std::uint32_t rotl(std::uint32_t v, int s) noexcept {
  return std::rotl(v, s);
}

constexpr std::uint32_t be32(const std::uint8_t* p) noexcept {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

// The generic pair lane's working registers a..e.
struct Sha1Regs {
  std::uint32_t a, b, c, d, e;
};

// One round of function F (0: choose, 1 and 3: parity, 2: majority) with
// its constant, fixed at compile time: no branch per round.
template <int F>
inline void sha1Step(Sha1Regs& r, std::uint32_t w) noexcept {
  std::uint32_t f = 0;
  std::uint32_t k = 0;
  if constexpr (F == 0) {
    f = (r.b & r.c) | (~r.b & r.d);
    k = 0x5A827999u;
  } else if constexpr (F == 2) {
    f = (r.b & r.c) | (r.b & r.d) | (r.c & r.d);
    k = 0x8F1BBCDCu;
  } else {
    f = r.b ^ r.c ^ r.d;
    k = F == 1 ? 0x6ED9EBA1u : 0xCA62C1D6u;
  }
  const std::uint32_t t = rotl(r.a, 5) + f + r.e + k + w;
  r.e = r.d;
  r.d = r.c;
  r.c = rotl(r.b, 30);
  r.b = r.a;
  r.a = t;
}

// Schedule word I: the block word itself for I < 16, else computed in
// place over w[I - 16] in a 16-word ring,
// w[I] = rotl(w[I-3] ^ w[I-8] ^ w[I-14] ^ w[I-16], 1). I is a compile-time
// constant, so every ring index is too: the compiler gives each word a
// fixed slot and folds the zero pad words (about 1.7x faster than a round
// loop with runtime ring indices).
template <int I>
inline std::uint32_t sha1Schedule(std::uint32_t (&w)[16]) noexcept {
  if constexpr (I < 16) {
    return w[I];
  } else {
    std::uint32_t& slot = w[I & 15];
    slot = rotl(w[(I + 13) & 15] ^ w[(I + 8) & 15] ^ w[(I + 2) & 15] ^ slot, 1);
    return slot;
  }
}

// Rounds 20F..20F+19 (J = 0..19), all with round function F.
template <int F, int... J>
inline void sha1TwentyRounds(Sha1Regs& r, std::uint32_t (&w)[16],
                             std::integer_sequence<int, J...>) noexcept {
  (sha1Step<F>(r, sha1Schedule<20 * F + J>(w)), ...);
}

#if defined(AVMEM_SHA1_X86_LANES)

// Rounds 20F..20F+19, as five groups g = 5F..5F+4 of four rounds. Each
// group takes the next four schedule words (for g >= 4 derived from the
// previous sixteen held in `m`, a ring of four quads), folds them into E
// with sha1nexte, and runs four rounds of function F. `prev` is the ABCD
// that entered the previous group, which sha1nexte turns into this group's
// E.
template <int F>
__attribute__((target("sha,sse4.1"))) inline void sha1NiFiveGroups(
    __m128i (&m)[4], __m128i& abcd, __m128i& prev) noexcept {
  for (int j = 0; j < 5; ++j) {
    const int g = 5 * F + j;
    if (g == 0) continue;  // group 0 is seeded by the caller
    __m128i& w = m[g % 4];
    if (g >= 4) {
      w = _mm_sha1msg2_epu32(
          _mm_xor_si128(_mm_sha1msg1_epu32(w, m[(g + 1) % 4]),
                        m[(g + 2) % 4]),
          m[(g + 3) % 4]);
    }
    const __m128i e = _mm_sha1nexte_epu32(prev, w);
    prev = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e, F);
  }
}

// Sixteen pairs' working registers a..e, one pair per 32-bit lane.
struct Sha1Regs16 {
  __m512i a, b, c, d, e;
};

// vprold by S on every lane. Written as the all-lanes zero-masked form:
// the same instruction, while GCC 12's unmasked intrinsic reads an
// undefined pass-through vector that -Wuninitialized flags.
template <int S>
__attribute__((target("avx512f"))) inline __m512i rol16(__m512i v) noexcept {
  return _mm512_maskz_rol_epi32(static_cast<__mmask16>(0xFFFF), v, S);
}

// sha1Step over sixteen lanes. The round function is one vpternlogd:
// truth table 0xCA is b ? c : d (choose), 0xE8 majority, 0x96 parity.
template <int F>
__attribute__((target("avx512f"))) inline void sha1Step16(
    Sha1Regs16& r, __m512i w) noexcept {
  constexpr int kTable = F == 0 ? 0xCA : F == 2 ? 0xE8 : 0x96;
  constexpr std::uint32_t kK[4] = {0x5A827999u, 0x6ED9EBA1u, 0x8F1BBCDCu,
                                   0xCA62C1D6u};
  const __m512i f = _mm512_ternarylogic_epi32(r.b, r.c, r.d, kTable);
  const __m512i ek =
      _mm512_add_epi32(r.e, _mm512_set1_epi32(static_cast<int>(kK[F])));
  const __m512i t = _mm512_add_epi32(
      _mm512_add_epi32(rol16<5>(r.a), f), _mm512_add_epi32(ek, w));
  r.e = r.d;
  r.d = r.c;
  r.c = rol16<30>(r.b);
  r.b = r.a;
  r.a = t;
}

// sha1Schedule over sixteen lanes: the same compile-time 16-word ring.
template <int I>
__attribute__((target("avx512f"))) inline __m512i sha1Schedule16(
    __m512i (&w)[16]) noexcept {
  if constexpr (I < 16) {
    return w[I];
  } else {
    __m512i& slot = w[I & 15];
    slot = rol16<1>(
        _mm512_xor_si512(_mm512_ternarylogic_epi32(w[(I + 13) & 15],
                                                   w[(I + 8) & 15],
                                                   w[(I + 2) & 15], 0x96),
                         slot));
    return slot;
  }
}

template <int F, int... J>
__attribute__((target("avx512f"))) inline void sha1TwentyRounds16(
    Sha1Regs16& r, __m512i (&w)[16],
    std::integer_sequence<int, J...>) noexcept {
  (sha1Step16<F>(r, sha1Schedule16<20 * F + J>(w)), ...);
}

// The AVX-512 multi-pair lane with the fixed operand on side `Side`. Each
// block of sixteen pairs splits the two 48-bit words into the message
// words w0..w2 per lane; a short last block is padded with zero words
// whose digests are never stored.
template <PairSide Side>
__attribute__((target("avx512f"))) void pair6Many16(
    std::uint64_t fixed, std::span<const std::uint64_t> others,
    std::span<std::uint64_t> out) noexcept {
  constexpr std::uint64_t kMask48 = (std::uint64_t{1} << 48) - 1;
  fixed &= kMask48;
  const std::size_t n = others.size();
  for (std::size_t base = 0; base < n; base += 16) {
    const std::size_t len = std::min<std::size_t>(16, n - base);
    alignas(64) std::uint32_t m0[16];
    alignas(64) std::uint32_t m1[16];
    alignas(64) std::uint32_t m2[16];
    for (std::size_t i = 0; i < 16; ++i) {
      const std::uint64_t other = i < len ? others[base + i] & kMask48 : 0;
      const std::uint64_t left = Side == PairSide::kLeft ? fixed : other;
      const std::uint64_t right = Side == PairSide::kLeft ? other : fixed;
      // a0..a3 | a4 a5 b0 b1 | b2..b5 (the truncating casts keep the low
      // 32 bits of each shifted word).
      m0[i] = static_cast<std::uint32_t>(left >> 16);
      m1[i] = static_cast<std::uint32_t>((left << 16) | (right >> 32));
      m2[i] = static_cast<std::uint32_t>(right);
    }
    const __m512i zero = _mm512_setzero_si512();
    __m512i w[16] = {_mm512_load_si512(m0),
                     _mm512_load_si512(m1),
                     _mm512_load_si512(m2),
                     _mm512_set1_epi32(static_cast<int>(0x80000000u)),
                     zero, zero, zero, zero, zero, zero, zero, zero, zero,
                     zero, zero,
                     _mm512_set1_epi32(96)};
    const __m512i h0 = _mm512_set1_epi32(0x67452301);
    const __m512i h1 = _mm512_set1_epi32(static_cast<int>(0xEFCDAB89u));
    Sha1Regs16 r{h0, h1, _mm512_set1_epi32(static_cast<int>(0x98BADCFEu)),
                 _mm512_set1_epi32(0x10325476),
                 _mm512_set1_epi32(static_cast<int>(0xC3D2E1F0u))};
    constexpr auto kTwenty = std::make_integer_sequence<int, 20>{};
    sha1TwentyRounds16<0>(r, w, kTwenty);
    sha1TwentyRounds16<1>(r, w, kTwenty);
    sha1TwentyRounds16<2>(r, w, kTwenty);
    sha1TwentyRounds16<3>(r, w, kTwenty);

    // H0 and H1 only, as in pair6Generic.
    alignas(64) std::uint32_t d0[16];
    alignas(64) std::uint32_t d1[16];
    _mm512_store_si512(d0, _mm512_add_epi32(r.a, h0));
    _mm512_store_si512(d1, _mm512_add_epi32(r.b, h1));
    for (std::size_t i = 0; i < len; ++i) {
      out[base + i] = (std::uint64_t{d0[i]} << 32) | d1[i];
    }
  }
}

#endif

// The 6-byte wire encoding held in the low 48 bits of `word`.
std::array<std::uint8_t, 6> wireBytes(std::uint64_t word) noexcept {
  return {static_cast<std::uint8_t>(word >> 40),
          static_cast<std::uint8_t>(word >> 32),
          static_cast<std::uint8_t>(word >> 24),
          static_cast<std::uint8_t>(word >> 16),
          static_cast<std::uint8_t>(word >> 8),
          static_cast<std::uint8_t>(word)};
}

}  // namespace

void Sha1::reset() noexcept {
  state_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  totalBytes_ = 0;
  bufferLen_ = 0;
}

void Sha1::processBlock(const std::uint8_t* block) noexcept {
  std::uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[i * 4]} << 24) |
           (std::uint32_t{block[i * 4 + 1]} << 16) |
           (std::uint32_t{block[i * 4 + 2]} << 8) |
           std::uint32_t{block[i * 4 + 3]};
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  std::uint32_t a = state_[0];
  std::uint32_t b = state_[1];
  std::uint32_t c = state_[2];
  std::uint32_t d = state_[3];
  std::uint32_t e = state_[4];

  for (int i = 0; i < 80; ++i) {
    std::uint32_t f = 0;
    std::uint32_t k = 0;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5A827999u;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    const std::uint32_t tmp = rotl(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = tmp;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
}

void Sha1::update(std::span<const std::uint8_t> data) noexcept {
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

Sha1Digest Sha1::finish() noexcept {
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
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bitLen >> (56 - 8 * i));
  }
  processBlock(buffer_.data());

  Sha1Digest digest{};
  for (int i = 0; i < 5; ++i) {
    digest[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

Sha1Digest sha1(std::span<const std::uint8_t> data) noexcept {
  Sha1 h;
  h.update(data);
  return h.finish();
}

Sha1Digest sha1(std::string_view data) noexcept {
  Sha1 h;
  h.update(data);
  return h.finish();
}

namespace sha1_lanes {

std::uint64_t pair6Generic(std::span<const std::uint8_t, 6> a,
                           std::span<const std::uint8_t, 6> b) noexcept {
  const std::uint8_t mid[4] = {a[4], a[5], b[0], b[1]};
  std::uint32_t w[16] = {be32(a.data()), be32(mid), be32(b.data() + 2),
                         0x80000000u, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 96};
  constexpr Sha1Regs kInit{0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                           0x10325476u, 0xC3D2E1F0u};
  Sha1Regs r = kInit;
  constexpr auto kTwenty = std::make_integer_sequence<int, 20>{};
  sha1TwentyRounds<0>(r, w, kTwenty);
  sha1TwentyRounds<1>(r, w, kTwenty);
  sha1TwentyRounds<2>(r, w, kTwenty);
  sha1TwentyRounds<3>(r, w, kTwenty);

  // H0 and H1 only: digest words 2..4 are never read here.
  const std::uint32_t h0 = kInit.a + r.a;
  const std::uint32_t h1 = kInit.b + r.b;
  return (std::uint64_t{h0} << 32) | h1;
}

#if defined(AVMEM_SHA1_X86_LANES)

bool niSupported() noexcept {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return sse41 && sha;
}

__attribute__((target("sha,sse4.1"))) std::uint64_t pair6Ni(
    std::span<const std::uint8_t, 6> a,
    std::span<const std::uint8_t, 6> b) noexcept {
  // Lane 3 holds the first word of each quad (the sha1rnds4 convention).
  const std::uint8_t mid[4] = {a[4], a[5], b[0], b[1]};
  __m128i m[4] = {
      _mm_set_epi32(static_cast<int>(be32(a.data())),
                    static_cast<int>(be32(mid)),
                    static_cast<int>(be32(b.data() + 2)),
                    static_cast<int>(0x80000000u)),
      _mm_setzero_si128(),
      _mm_setzero_si128(),
      _mm_set_epi32(0, 0, 0, 96),
  };
  const __m128i abcd0 =
      _mm_set_epi32(0x67452301, static_cast<int>(0xEFCDAB89u),
                    static_cast<int>(0x98BADCFEu), 0x10325476);
  const __m128i e0 = _mm_set_epi32(static_cast<int>(0xC3D2E1F0u), 0, 0, 0);

  // Group 0: E is the initial e plus w0..w3, no sha1nexte.
  __m128i prev = abcd0;
  __m128i abcd = _mm_sha1rnds4_epu32(abcd0, _mm_add_epi32(e0, m[0]), 0);
  sha1NiFiveGroups<0>(m, abcd, prev);
  sha1NiFiveGroups<1>(m, abcd, prev);
  sha1NiFiveGroups<2>(m, abcd, prev);
  sha1NiFiveGroups<3>(m, abcd, prev);

  // H0 and H1 only: the final E feeds digest words 2..4, never read here.
  abcd = _mm_add_epi32(abcd, abcd0);
  const auto h0 = static_cast<std::uint32_t>(_mm_extract_epi32(abcd, 3));
  const auto h1 = static_cast<std::uint32_t>(_mm_extract_epi32(abcd, 2));
  return (std::uint64_t{h0} << 32) | h1;
}

bool avx512Supported() noexcept {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & (1u << 27)) == 0) return false;  // no OSXSAVE: no xgetbv
  unsigned xcr0 = 0;
  unsigned xcr0Hi = 0;
  __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0Hi) : "c"(0u));
  // The OS must save the SSE, AVX, opmask and both ZMM state components.
  if ((xcr0 & 0xE6u) != 0xE6u) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & (1u << 16)) != 0;
}

void pair6ManyAvx512(std::uint64_t fixed,
                     std::span<const std::uint64_t> others,
                     PairSide fixedSide,
                     std::span<std::uint64_t> out) noexcept {
  if (fixedSide == PairSide::kLeft) {
    pair6Many16<PairSide::kLeft>(fixed, others, out);
  } else {
    pair6Many16<PairSide::kRight>(fixed, others, out);
  }
}

#else

bool niSupported() noexcept { return false; }

std::uint64_t pair6Ni(std::span<const std::uint8_t, 6> a,
                      std::span<const std::uint8_t, 6> b) noexcept {
  return pair6Generic(a, b);
}

bool avx512Supported() noexcept { return false; }

void pair6ManyAvx512(std::uint64_t fixed,
                     std::span<const std::uint64_t> others,
                     PairSide fixedSide,
                     std::span<std::uint64_t> out) noexcept {
  pair6ManyLoop(fixed, others, fixedSide, out);
}

#endif

void pair6ManyLoop(std::uint64_t fixed, std::span<const std::uint64_t> others,
                   PairSide fixedSide, std::span<std::uint64_t> out) noexcept {
  const std::array<std::uint8_t, 6> f = wireBytes(fixed);
  for (std::size_t i = 0; i < others.size(); ++i) {
    const std::array<std::uint8_t, 6> o = wireBytes(others[i]);
    out[i] = fixedSide == PairSide::kLeft ? sha1Pair6(f, o) : sha1Pair6(o, f);
  }
}

}  // namespace sha1_lanes

std::uint64_t sha1Pair6(std::span<const std::uint8_t, 6> a,
                        std::span<const std::uint8_t, 6> b) noexcept {
  using Lane = std::uint64_t (*)(std::span<const std::uint8_t, 6>,
                                 std::span<const std::uint8_t, 6>) noexcept;
  static const Lane lane = sha1_lanes::niSupported()
                               ? &sha1_lanes::pair6Ni
                               : &sha1_lanes::pair6Generic;
  return lane(a, b);
}

void sha1Pair6Many(std::uint64_t fixed, std::span<const std::uint64_t> others,
                   PairSide fixedSide, std::span<std::uint64_t> out) noexcept {
  using Lane = void (*)(std::uint64_t, std::span<const std::uint64_t>,
                        PairSide, std::span<std::uint64_t>) noexcept;
  static const Lane lane = sha1_lanes::avx512Supported()
                               ? &sha1_lanes::pair6ManyAvx512
                               : &sha1_lanes::pair6ManyLoop;
  lane(fixed, others, fixedSide, out);
}

std::string toHex(const Sha1Digest& digest) {
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
