#include "snapshot/snapshot_io.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

namespace avmem::snapshot {

namespace {

/// Slicing-by-16 tables for CRC-32 (IEEE, reflected, polynomial
/// 0xEDB88320): row 0 is the classic byte table; row k advances a byte's
/// contribution past k further zero bytes, so one lookup per byte folds a
/// 16-byte block into the running CRC at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr CrcTables makeCrcTables() noexcept {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = makeCrcTables();

// The block loop reads four bytes as one native word and takes the first
// of them from the word's low end, which holds on the little-endian hosts
// snapshot_io.hpp asserts.
std::uint32_t loadWord(const std::uint8_t* p) noexcept {
  std::uint32_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) noexcept {
  const CrcTables& t = kCrcTables;
  std::uint32_t c = 0xFFFFFFFFu;
  for (; len >= 16; data += 16, len -= 16) {
    const std::uint32_t w0 = loadWord(data) ^ c;
    const std::uint32_t w1 = loadWord(data + 4);
    const std::uint32_t w2 = loadWord(data + 8);
    const std::uint32_t w3 = loadWord(data + 12);
    // Block byte j is 15 - j bytes from the block's end: table 15 - j.
    c = t[15][w0 & 0xFFu] ^ t[14][(w0 >> 8) & 0xFFu] ^
        t[13][(w0 >> 16) & 0xFFu] ^ t[12][w0 >> 24] ^
        t[11][w1 & 0xFFu] ^ t[10][(w1 >> 8) & 0xFFu] ^
        t[9][(w1 >> 16) & 0xFFu] ^ t[8][w1 >> 24] ^
        t[7][w2 & 0xFFu] ^ t[6][(w2 >> 8) & 0xFFu] ^
        t[5][(w2 >> 16) & 0xFFu] ^ t[4][w2 >> 24] ^
        t[3][w3 & 0xFFu] ^ t[2][(w3 >> 8) & 0xFFu] ^
        t[1][(w3 >> 16) & 0xFFu] ^ t[0][w3 >> 24];
  }
  for (; len > 0; ++data, --len) {
    c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// --- CheckpointWriter -------------------------------------------------------

void CheckpointWriter::write(const void* data, std::size_t len) {
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(len));
  if (!out_) {
    throw CheckpointIoError("checkpoint write failed");
  }
}

void CheckpointWriter::writeHeader(const FileHeader& header) {
  write(kMagic, sizeof(kMagic));
  write(&header.version, sizeof(header.version));
  write(&header.fingerprint, sizeof(header.fingerprint));
  write(&header.hosts, sizeof(header.hosts));
  write(&header.seed, sizeof(header.seed));
}

void CheckpointWriter::writeSection(std::uint32_t id,
                                    const SectionWriter& payload) {
  const std::vector<std::uint8_t>& buf = payload.buffer();
  const std::uint64_t len = buf.size();
  const std::uint32_t crc = crc32(buf.data(), buf.size());
  write(&id, sizeof(id));
  write(&len, sizeof(len));
  write(&crc, sizeof(crc));
  if (!buf.empty()) write(buf.data(), buf.size());
}

void CheckpointWriter::finish() {
  out_.flush();
  if (!out_) {
    throw CheckpointIoError("checkpoint flush failed");
  }
}

// --- CheckpointReader -------------------------------------------------------

void CheckpointReader::read(void* data, std::size_t len, const char* what) {
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(len));
  if (static_cast<std::size_t>(in_.gcount()) != len) {
    throw CheckpointFormatError(std::string("checkpoint truncated in ") +
                                what);
  }
}

CheckpointReader::CheckpointReader(std::istream& in)
    : in_(in), remaining_(std::numeric_limits<std::size_t>::max()) {
  if (!in_) {
    throw CheckpointIoError("checkpoint stream not readable");
  }

  char magic[sizeof(kMagic)];
  in_.read(magic, sizeof(magic));
  if (static_cast<std::size_t>(in_.gcount()) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw CheckpointFormatError("not an AVMEM checkpoint (bad magic)");
  }
  read(&header_.version, sizeof(header_.version), "header");
  if (header_.version != kFormatVersion) {
    throw CheckpointVersionError(
        "checkpoint format version " + std::to_string(header_.version) +
        " (this build reads version " + std::to_string(kFormatVersion) +
        ")");
  }
  read(&header_.fingerprint, sizeof(header_.fingerprint), "header");
  read(&header_.hosts, sizeof(header_.hosts), "header");
  read(&header_.seed, sizeof(header_.seed), "header");

  // On a seekable stream, learn the exact byte budget so corrupt section
  // lengths are rejected before allocation (a flipped length bit must not
  // turn into a multi-gigabyte resize).
  const std::istream::pos_type cur = in_.tellg();
  if (cur != std::istream::pos_type(-1)) {
    in_.seekg(0, std::ios::end);
    const std::istream::pos_type end = in_.tellg();
    in_.seekg(cur);
    if (end != std::istream::pos_type(-1) && in_) {
      remaining_ = static_cast<std::size_t>(end - cur);
    }
  }
  in_.clear();
}

bool CheckpointReader::nextSection(std::uint32_t& id,
                                   std::vector<std::uint8_t>& payload) {
  char probe;
  in_.read(&probe, 1);
  if (in_.gcount() == 0) return false;  // clean end of file
  in_.putback(probe);

  constexpr std::size_t kFrameBytes =
      sizeof(std::uint32_t) + sizeof(std::uint64_t) + sizeof(std::uint32_t);
  std::uint64_t len = 0;
  std::uint32_t crc = 0;
  read(&id, sizeof(id), "section frame");
  read(&len, sizeof(len), "section frame");
  read(&crc, sizeof(crc), "section frame");
  const bool sizeKnown = remaining_ != std::numeric_limits<std::size_t>::max();
  if (sizeKnown) {
    if (remaining_ < kFrameBytes || len > remaining_ - kFrameBytes) {
      throw CheckpointFormatError(
          "checkpoint section length exceeds file size");
    }
    remaining_ -= kFrameBytes + static_cast<std::size_t>(len);
  }

  // A length checked against the stream size is read in one go. On a
  // stream of unknown size the length is the file's unverified claim, so
  // the buffer grows at most kUnverifiedChunk per read: a lying frame runs
  // out of bytes ("truncated") at most one chunk past the real data,
  // instead of first allocating whatever it claimed.
  constexpr std::uint64_t kUnverifiedChunk = 1u << 20;
  const std::uint64_t step = sizeKnown ? len : kUnverifiedChunk;
  std::size_t filled = 0;
  do {
    const auto n = static_cast<std::size_t>(std::min(len - filled, step));
    payload.resize(filled + n);
    if (n != 0) read(payload.data() + filled, n, "section payload");
    filled += n;
  } while (filled < len);
  if (crc32(payload.data(), payload.size()) != crc) {
    throw CheckpointCrcError("checkpoint section CRC mismatch");
  }
  return true;
}

}  // namespace avmem::snapshot
