// Hostile-input hardening: a checkpoint that is truncated, bit-flipped,
// version-skewed, config-skewed, or structurally lying must produce the
// matching typed CheckpointError — never UB, never a silent partial
// restore, never an attacker-sized allocation. CI runs this suite under
// AddressSanitizer, so any out-of-bounds parse the assertions miss still
// fails the job.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <istream>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "core/simulation.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "snapshot/checkpoint.hpp"

namespace avmem::snapshot {
namespace {

using core::AvmemSimulation;
using core::Scenario;

/// Fixed byte layout of the file header (magic + version + fingerprint +
/// hosts + seed) — the offsets the mutation helpers below patch.
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8 + 8;
constexpr std::size_t kVersionOffset = 8;
/// Per-section frame: u32 id + u64 len + u32 crc.
constexpr std::size_t kFrameBytes = 4 + 8 + 4;

Scenario donorScenario() {
  Scenario s = core::makeScaleScenario(250, /*seed=*/3);
  // A fast shuffle keeps legs in flight at the save instant, so the CHAN
  // section is non-trivial.
  s.config.shuffle.period = sim::SimDuration::seconds(15);
  return s;
}

/// One valid warm checkpoint, produced once and shared by every mutation
/// test (saving is the expensive part).
const std::string& goodBytes() {
  static const std::string bytes = [] {
    AvmemSimulation donor(donorScenario().config);
    donor.warmup(sim::SimDuration::minutes(10));
    std::ostringstream out(std::ios::binary);
    donor.saveCheckpoint(out);
    return out.str();
  }();
  return bytes;
}

/// Restore hostile `bytes` into a fresh `config` world and expect a
/// CheckpointError that passes `check`. A rejected restore must install
/// nothing: the same victim then takes `good`, the checkpoint of the
/// donor `config` describes, and re-saves it byte for byte.
void expectRestoreThrows(
    const std::string& bytes, void (*check)(const CheckpointError&),
    const core::SimulationConfig& config = donorScenario().config,
    const std::string& good = goodBytes()) {
  AvmemSimulation victim(config);
  {
    std::istringstream in(bytes, std::ios::binary);
    try {
      victim.restoreCheckpoint(in);
      FAIL() << "restore accepted hostile input";
    } catch (const CheckpointError& e) {
      check(e);
    }
  }
  std::istringstream in(good, std::ios::binary);
  ASSERT_NO_THROW(victim.restoreCheckpoint(in))
      << "a rejected restore left the victim unusable";
  std::ostringstream out(std::ios::binary);
  victim.saveCheckpoint(out);
  EXPECT_EQ(out.str(), good);
}

template <typename Expected>
void expectRestoreError(
    const std::string& bytes,
    const core::SimulationConfig& config = donorScenario().config,
    const std::string& good = goodBytes()) {
  expectRestoreThrows(
      bytes,
      [](const CheckpointError& e) {
        EXPECT_NE(dynamic_cast<const Expected*>(&e), nullptr)
            << "wrong error type: " << e.what();
      },
      config, good);
}

/// A section frame located inside the raw byte string.
struct FrameRef {
  std::uint32_t id = 0;
  std::size_t frameStart = 0;
  std::size_t payloadStart = 0;
  std::size_t payloadLen = 0;
};

std::vector<FrameRef> walkFrames(const std::string& bytes) {
  std::vector<FrameRef> frames;
  std::size_t pos = kHeaderBytes;
  while (pos + kFrameBytes <= bytes.size()) {
    FrameRef f;
    f.frameStart = pos;
    std::memcpy(&f.id, bytes.data() + pos, 4);
    std::uint64_t len = 0;
    std::memcpy(&len, bytes.data() + pos + 4, 8);
    f.payloadStart = pos + kFrameBytes;
    f.payloadLen = static_cast<std::size_t>(len);
    frames.push_back(f);
    pos = f.payloadStart + f.payloadLen;
  }
  return frames;
}

/// Reassemble a file from (possibly mutated) section payloads with
/// correct CRCs — for attacks that must get PAST the checksum.
std::string reframe(const std::string& header,
                    const std::vector<std::pair<std::uint32_t, std::string>>&
                        sections) {
  std::string out = header;
  for (const auto& [id, payload] : sections) {
    const std::uint64_t len = payload.size();
    const std::uint32_t crc = crc32(
        reinterpret_cast<const std::uint8_t*>(payload.data()),
        payload.size());
    out.append(reinterpret_cast<const char*>(&id), 4);
    out.append(reinterpret_cast<const char*>(&len), 8);
    out.append(reinterpret_cast<const char*>(&crc), 4);
    out.append(payload);
  }
  return out;
}

std::vector<std::pair<std::uint32_t, std::string>> sectionsOf(
    const std::string& bytes) {
  std::vector<std::pair<std::uint32_t, std::string>> out;
  for (const FrameRef& f : walkFrames(bytes)) {
    out.emplace_back(f.id,
                     bytes.substr(f.payloadStart, f.payloadLen));
  }
  return out;
}

/// `good` with section `tag`'s payload run through `mutate`, re-framed
/// behind valid CRCs.
template <typename Mutate>
std::string mutateSection(const std::string& good, std::uint32_t tag,
                          Mutate mutate) {
  auto sections = sectionsOf(good);
  bool found = false;
  for (auto& [id, payload] : sections) {
    if (id != tag) continue;
    found = true;
    mutate(payload);
  }
  EXPECT_TRUE(found) << "donor checkpoint lacks the section to mutate";
  return reframe(good.substr(0, kHeaderBytes), sections);
}

/// `payload` with the `recordBytes`-wide record at `at` removed and the
/// u64 count at `countAt` (which must cover it) lowered by one.
void dropRecord(std::string& payload, std::size_t countAt, std::size_t at,
                std::size_t recordBytes) {
  std::uint64_t count = 0;
  std::memcpy(&count, payload.data() + countAt, 8);
  ASSERT_GT(count, 0u);
  --count;
  std::memcpy(payload.data() + countAt, &count, 8);
  payload.erase(at, recordBytes);
}

/// The donor world on the AVMON backend (kFast64 monitor relation), so
/// its checkpoint carries an AVMN section with materialized cells.
Scenario avmonDonorScenario() {
  Scenario s = donorScenario();
  s.config.backend = core::AvailabilityBackend::kAvmon;
  s.config.avmon.hashAlgorithm = hashing::PairHashAlgorithm::kFast64;
  s.config.avmon.hashSeed = 5;
  return s;
}

const std::string& goodAvmonBytes() {
  static const std::string bytes = [] {
    AvmemSimulation donor(avmonDonorScenario().config);
    donor.warmup(sim::SimDuration::minutes(10));
    std::ostringstream out(std::ios::binary);
    donor.saveCheckpoint(out);
    return out.str();
  }();
  return bytes;
}

/// AVMN payload layout: fold cursor (u64), four ping counters (u64), task
/// running (u8), fire-at (i64), seq (u64), cell count (u64), then the
/// cells — u32 target plus two length-prefixed u32 arrays each.
constexpr std::size_t kAvmnRunningOffset = 8 + 4 * 8;
constexpr std::size_t kAvmnCellsOffset = kAvmnRunningOffset + 1 + 8 + 8 + 8;

/// The cells of an AVMN payload, one string each.
std::vector<std::string> avmnCells(const std::string& payload) {
  std::uint64_t count = 0;
  std::memcpy(&count, payload.data() + kAvmnCellsOffset - 8, 8);
  std::vector<std::string> cells;
  std::size_t pos = kAvmnCellsOffset;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::size_t end = pos + 4;
    for (int array = 0; array < 2; ++array) {
      std::uint64_t len = 0;
      std::memcpy(&len, payload.data() + end, 8);
      end += 8 + 4 * static_cast<std::size_t>(len);
    }
    cells.push_back(payload.substr(pos, end - pos));
    pos = end;
  }
  return cells;
}

/// The AVMON donor checkpoint with its AVMN payload run through `mutate`,
/// re-framed behind valid CRCs.
template <typename Mutate>
std::string mutateAvmn(Mutate mutate) {
  return mutateSection(goodAvmonBytes(), fourcc('A', 'V', 'M', 'N'), mutate);
}

TEST(SnapshotHostileTest, EmptyAndGarbageStreams) {
  expectRestoreError<CheckpointFormatError>("");
  expectRestoreError<CheckpointFormatError>("short");
  expectRestoreError<CheckpointFormatError>(
      std::string(1024, '\x5a'));  // plausible length, wrong magic
}

TEST(SnapshotHostileTest, BadMagic) {
  std::string bytes = goodBytes();
  bytes[0] ^= 0x01;
  expectRestoreError<CheckpointFormatError>(bytes);
}

TEST(SnapshotHostileTest, VersionSkew) {
  std::string bytes = goodBytes();
  const std::uint32_t future = kFormatVersion + 7;
  std::memcpy(bytes.data() + kVersionOffset, &future, 4);
  expectRestoreError<CheckpointVersionError>(bytes);
}

TEST(SnapshotHostileTest, TruncationAtEveryBoundary) {
  const std::string& good = goodBytes();
  std::vector<std::size_t> cuts = {1,  4,  kHeaderBytes - 1, kHeaderBytes + 3,
                                   kHeaderBytes + kFrameBytes - 1};
  for (const FrameRef& f : walkFrames(good)) {
    cuts.push_back(f.payloadStart);           // frame with no payload
    cuts.push_back(f.payloadStart + f.payloadLen / 2);  // mid-payload
  }
  cuts.push_back(good.size() - 1);
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    ASSERT_LT(cut, good.size());
    expectRestoreError<CheckpointFormatError>(good.substr(0, cut));
  }
  // Truncation at an exact section boundary parses cleanly but loses
  // mandatory sections — still a loud format error. (Cutting before the
  // second-to-last frame drops both the facade-RNG section and the
  // trailing optional Markov-cursor section; dropping only the optional
  // one would legitimately restore.)
  const std::vector<FrameRef> frames = walkFrames(good);
  ASSERT_GT(frames.size(), 2u);
  expectRestoreError<CheckpointFormatError>(
      good.substr(0, frames[frames.size() - 2].frameStart));
}

TEST(SnapshotHostileTest, BitFlipInEverySectionIsCaughtByCrc) {
  const std::string& good = goodBytes();
  for (const FrameRef& f : walkFrames(good)) {
    if (f.payloadLen == 0) continue;
    SCOPED_TRACE("section=" + std::to_string(f.id));
    std::string bytes = good;
    bytes[f.payloadStart + f.payloadLen / 2] ^= 0x40;
    expectRestoreError<CheckpointCrcError>(bytes);
  }
}

TEST(SnapshotHostileTest, AbsurdSectionLengthRejectedBeforeAllocation) {
  std::string bytes = goodBytes();
  const std::vector<FrameRef> frames = walkFrames(bytes);
  ASSERT_FALSE(frames.empty());
  // Lie about the first section's length: petabyte-scale. The reader's
  // byte budget must reject this before any resize happens — under ASan
  // an attempted 2^60-byte allocation would abort the process instead of
  // throwing, so reaching the typed error proves the ordering.
  const std::uint64_t absurd = 1ull << 60;
  std::memcpy(bytes.data() + frames[0].frameStart + 4, &absurd, 8);
  expectRestoreError<CheckpointFormatError>(bytes);
}

/// Serves a byte string but refuses every seek (std::streambuf's own
/// seekoff/seekpos fail), as a pipe does: the reader cannot learn how
/// many bytes remain.
class UnseekableBuf : public std::streambuf {
 public:
  explicit UnseekableBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

TEST(SnapshotHostileTest, LyingLengthOnUnseekableStreamIsTruncation) {
  // With no stream size to check against, the claimed 1 TiB must not be
  // allocated up front: the reader runs out of bytes first. Under ASan a
  // terabyte allocation would abort instead of throwing.
  std::string bytes = goodBytes();
  const std::vector<FrameRef> frames = walkFrames(bytes);
  ASSERT_FALSE(frames.empty());
  const std::uint64_t lie = 1ull << 40;
  std::memcpy(bytes.data() + frames[0].frameStart + 4, &lie, 8);

  AvmemSimulation victim(donorScenario().config);
  UnseekableBuf buf(bytes);
  std::istream in(&buf);
  try {
    victim.restoreCheckpoint(in);
    FAIL() << "restore accepted a lying section length";
  } catch (const CheckpointFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotHostileTest, ValidCheckpointRestoresFromUnseekableStream) {
  // A skipped section of a few MiB makes the reader assemble one payload
  // from several bounded reads, and still check its CRC.
  const std::string& good = goodBytes();
  auto sections = sectionsOf(good);
  sections.push_back(
      {fourcc('Z', 'Z', 'Z', '3'), std::string((5u << 19) + 3, '\x2a')});
  const std::string bytes = reframe(good.substr(0, kHeaderBytes), sections);

  AvmemSimulation victim(donorScenario().config);
  UnseekableBuf buf(bytes);
  std::istream in(&buf);
  ASSERT_NO_THROW(victim.restoreCheckpoint(in));
  std::ostringstream out(std::ios::binary);
  victim.saveCheckpoint(out);
  EXPECT_EQ(out.str(), good);
}

TEST(SnapshotHostileTest, UnknownSectionsAreSkipped) {
  const std::string& good = goodBytes();
  auto sections = sectionsOf(good);
  ASSERT_FALSE(sections.empty());
  // A newer writer appended sections this build has never heard of —
  // one mid-stream, one trailing.
  sections.insert(sections.begin() + 1,
                  {fourcc('Z', 'Z', 'Z', '1'), std::string("future data")});
  sections.push_back({fourcc('Z', 'Z', 'Z', '2'), std::string(64, '\x7f')});
  const std::string bytes = reframe(good.substr(0, kHeaderBytes), sections);

  AvmemSimulation restored(donorScenario().config);
  std::istringstream in(bytes, std::ios::binary);
  restored.restoreCheckpoint(in);

  // The restore ignored the unknown sections entirely: re-saving yields
  // the original canonical bytes.
  std::ostringstream out(std::ios::binary);
  restored.saveCheckpoint(out);
  EXPECT_EQ(out.str(), good);
}

TEST(SnapshotHostileTest, PayloadShrunkBehindValidCrc) {
  // CRC-valid but structurally short: the section cursor must hit its
  // bounds check, not read past the buffer (ASan would catch the latter).
  const std::string& good = goodBytes();
  auto sections = sectionsOf(good);
  for (auto& [id, payload] : sections) {
    if (id == fourcc('S', 'I', 'M', 'U')) {
      ASSERT_GE(payload.size(), 16u);
      payload.resize(10);  // i64 now + 2 bytes of the executed counter
    }
  }
  expectRestoreError<CheckpointFormatError>(
      reframe(good.substr(0, kHeaderBytes), sections));
}

TEST(SnapshotHostileTest, LyingNodeCountBehindValidCrc) {
  const std::string& good = goodBytes();
  auto sections = sectionsOf(good);
  for (auto& [id, payload] : sections) {
    if (id == fourcc('N', 'O', 'D', 'S')) {
      std::uint64_t count = 0;
      std::memcpy(&count, payload.data(), 8);
      ++count;
      std::memcpy(payload.data(), &count, 8);
    }
  }
  expectRestoreError<CheckpointFormatError>(
      reframe(good.substr(0, kHeaderBytes), sections));
}

TEST(SnapshotHostileTest, SavedEventBeforeClockBehindValidCrc) {
  // The event queue refuses instants before the restored clock. A SIMU
  // clock moved past every saved event must fail before the install,
  // not while re-arming after it.
  expectRestoreError<CheckpointFormatError>(mutateSection(
      goodBytes(), fourcc('S', 'I', 'M', 'U'), [](std::string& payload) {
        std::int64_t nowUs = 0;
        std::memcpy(&nowUs, payload.data(), 8);
        nowUs += std::int64_t{1'000'000'000'000};
        std::memcpy(payload.data(), &nowUs, 8);
      }));
}

TEST(SnapshotHostileTest, ShuffleRoundCountMismatchBehindValidCrc) {
  // SHFV ends with the per-node round array (u64 length, u32 per node),
  // three u64 counters and seeds, and the four-word RNG. One round short
  // is a parse-time format error, not an owner's throw mid-install.
  constexpr std::size_t kTailBytes = 3 * 8 + 4 * 8;
  expectRestoreError<CheckpointFormatError>(mutateSection(
      goodBytes(), fourcc('S', 'H', 'F', 'V'), [](std::string& payload) {
        const std::size_t hosts = donorScenario().config.trace.hosts;
        const std::size_t roundsAt = payload.size() - kTailBytes - 4 * hosts;
        dropRecord(payload, roundsAt - 8, payload.size() - kTailBytes - 4, 4);
      }));
}

TEST(SnapshotHostileTest, ChannelSpanOutsideArenaBehindValidCrc) {
  // CHAN: the heap count, 57-byte records (kind u8, src, dst, payload
  // offset and count, echo offset and count as u32, then four u64/i64),
  // the length-prefixed u32 arena, then the live-entry count. Deliveries
  // read each record's spans straight out of the arena.
  constexpr std::size_t kMsgBytes = 1 + 6 * 4 + 4 * 8;
  const auto chan = [](auto edit) {
    return mutateSection(goodBytes(), fourcc('C', 'H', 'A', 'N'),
                         [&](std::string& payload) {
                           std::uint64_t heap = 0;
                           std::memcpy(&heap, payload.data(), 8);
                           ASSERT_GT(heap, 0u);
                           edit(payload, heap);
                         });
  };
  {
    SCOPED_TRACE("payload span past the arena");
    expectRestoreError<CheckpointFormatError>(
        chan([](std::string& payload, std::uint64_t) {
          const std::uint32_t offset = 50'000'000;
          std::memcpy(payload.data() + 8 + 1 + 2 * 4, &offset, 4);
        }));
  }
  {
    SCOPED_TRACE("live entries off by one");
    expectRestoreError<CheckpointFormatError>(
        chan([](std::string& payload, std::uint64_t heap) {
          const std::size_t arenaAt = 8 + heap * kMsgBytes;
          std::uint64_t arena = 0;
          std::memcpy(&arena, payload.data() + arenaAt, 8);
          const std::size_t liveAt = arenaAt + 8 + 4 * arena;
          std::uint64_t live = 0;
          std::memcpy(&live, payload.data() + liveAt, 8);
          ++live;
          std::memcpy(payload.data() + liveAt, &live, 8);
        }));
  }
}

TEST(SnapshotHostileTest, ChannelAckSetMalformedBehindValidCrc) {
  // CHAN continues after the live-entry count with the pending-ack seqs
  // (u64 length, u64 each) and then the next seq. The writer emits them
  // ascending, each issued (below the next seq) and each still awaiting
  // its timeout record; a restored channel must re-save the same bytes.
  constexpr std::size_t kMsgBytes = 1 + 6 * 4 + 4 * 8;
  using Edit = void (*)(std::vector<std::uint64_t>&, std::uint64_t);
  const auto chan = [](Edit edit) {
    return mutateSection(
        goodBytes(), fourcc('C', 'H', 'A', 'N'), [&](std::string& payload) {
          std::uint64_t heap = 0;
          std::memcpy(&heap, payload.data(), 8);
          const std::size_t arenaAt = 8 + heap * kMsgBytes;
          std::uint64_t arena = 0;
          std::memcpy(&arena, payload.data() + arenaAt, 8);
          const std::size_t acksAt = arenaAt + 8 + 4 * arena + 8;
          std::uint64_t count = 0;
          std::memcpy(&count, payload.data() + acksAt, 8);
          ASSERT_GT(count, 0u) << "donor has no pending ack to mutate";
          std::vector<std::uint64_t> acks(count);
          std::memcpy(acks.data(), payload.data() + acksAt + 8, 8 * count);
          ASSERT_GT(acks.front(), 0u);
          const std::size_t tailAt = acksAt + 8 + 8 * count;
          std::uint64_t nextSeq = 0;
          std::memcpy(&nextSeq, payload.data() + tailAt, 8);
          edit(acks, nextSeq);
          std::string rebuilt = payload.substr(0, acksAt);
          const std::uint64_t n = acks.size();
          rebuilt.append(reinterpret_cast<const char*>(&n), 8);
          rebuilt.append(reinterpret_cast<const char*>(acks.data()), 8 * n);
          payload = rebuilt + payload.substr(tailAt);
        });
  };
  const std::pair<const char*, Edit> cases[] = {
      {"duplicate",
       [](std::vector<std::uint64_t>& acks, std::uint64_t) {
         acks.insert(acks.begin(), acks.front());
       }},
      {"descending",
       [](std::vector<std::uint64_t>& acks, std::uint64_t) {
         acks.insert(acks.begin(), acks.front() + 1);
       }},
      {"not yet issued",
       [](std::vector<std::uint64_t>& acks, std::uint64_t nextSeq) {
         acks.push_back(nextSeq);
       }},
      {"no timeout record",
       [](std::vector<std::uint64_t>& acks, std::uint64_t) {
         acks.front() = 0;  // settled minutes before the save
       }},
  };
  for (const auto& [what, edit] : cases) {
    SCOPED_TRACE(what);
    expectRestoreError<CheckpointFormatError>(chan(edit));
  }
}

TEST(SnapshotHostileTest, AvmonCellsOutOfOrderBehindValidCrc) {
  // The writer emits each materialized target once, ascending. A repeated
  // target would silently overwrite the earlier cell's counters.
  const core::SimulationConfig config = avmonDonorScenario().config;
  const std::size_t hosts = config.trace.hosts;
  const auto withCells = [](auto edit) {
    return mutateAvmn([&](std::string& payload) {
      std::vector<std::string> cells = avmnCells(payload);
      ASSERT_GE(cells.size(), 2u);
      edit(cells);
      payload.resize(kAvmnCellsOffset);
      for (const std::string& cell : cells) payload += cell;
    });
  };
  {
    // Split and re-joined unchanged, the donor still restores: each
    // mutation below is the only fault in its file.
    AvmemSimulation victim(config);
    std::istringstream in(withCells([](std::vector<std::string>&) {}),
                          std::ios::binary);
    EXPECT_NO_THROW(victim.restoreCheckpoint(in));
  }
  {
    SCOPED_TRACE("duplicate target");
    expectRestoreError<CheckpointFormatError>(
        withCells([](std::vector<std::string>& c) { c[1] = c[0]; }), config,
        goodAvmonBytes());
  }
  {
    SCOPED_TRACE("descending targets");
    expectRestoreError<CheckpointFormatError>(
        withCells([](std::vector<std::string>& c) { std::swap(c[0], c[1]); }),
        config, goodAvmonBytes());
  }
  {
    SCOPED_TRACE("target past the population");
    expectRestoreError<CheckpointFormatError>(
        withCells([hosts](std::vector<std::string>& c) {
          const auto target = static_cast<std::uint32_t>(hosts);
          std::memcpy(c.back().data(), &target, 4);
        }),
        config, goodAvmonBytes());
  }
}

TEST(SnapshotHostileTest, AvmonFoldCursorPastTraceBehindValidCrc) {
  // With the fold task stopped, the timer re-arm never looks at the
  // cursor; one at or past the trace's epoch count would only fail
  // mid-run, when a new target's catch-up loop reads past the last epoch.
  const core::SimulationConfig config = avmonDonorScenario().config;
  const std::uint64_t epochs = AvmemSimulation(config).trace().epochCount();
  expectRestoreError<CheckpointFormatError>(
      mutateAvmn([epochs](std::string& payload) {
        std::memcpy(payload.data(), &epochs, 8);
        payload[kAvmnRunningOffset] = 0;
      }),
      config, goodAvmonBytes());
}

TEST(SnapshotHostileTest, AvmonTimerMismatchBehindValidCrc) {
  // The saved epoch-fold timer must sit where the fold cursor puts the
  // next boundary. This check used to run only after the install, leaving
  // a half-restored victim behind.
  expectRestoreError<CheckpointFormatError>(
      mutateAvmn([](std::string& payload) {
        ASSERT_NE(payload[kAvmnRunningOffset], 0);
        std::int64_t fireAtUs = 0;
        std::memcpy(&fireAtUs, payload.data() + kAvmnRunningOffset + 1, 8);
        ++fireAtUs;
        std::memcpy(payload.data() + kAvmnRunningOffset + 1, &fireAtUs, 8);
      }),
      avmonDonorScenario().config, goodAvmonBytes());
}

TEST(SnapshotHostileTest, AvmonCellCounterLengthMismatchBehindValidCrc) {
  // A cell whose counter arrays are one longer than its target's monitor
  // set passes every parse check: only the monitor scan, which rebuilds
  // the set from the hash, can see it.
  expectRestoreError<CheckpointFormatError>(
      mutateAvmn([](std::string& payload) {
        std::vector<std::string> cells = avmnCells(payload);
        ASSERT_FALSE(cells.empty());
        std::string& cell = cells.front();
        std::uint64_t samples = 0;
        std::memcpy(&samples, cell.data() + 4, 8);
        cell.insert(4 + 8 + 4 * static_cast<std::size_t>(samples), 4, '\0');
        ++samples;
        std::memcpy(cell.data() + 4, &samples, 8);
        payload.resize(kAvmnCellsOffset);
        for (const std::string& c : cells) payload += c;
      }),
      avmonDonorScenario().config, goodAvmonBytes());
}

TEST(SnapshotHostileTest, WheelSlotCountMismatchBehindValidCrc) {
  // Slot membership is reassigned from RNG state on restore; a wheel
  // whose saved records miss one populated slot must be rejected before
  // anything is installed, not after the clock and nodes went in.
  constexpr std::size_t kSlotRecordBytes = 4 + 8 + 8;
  expectRestoreError<CheckpointFormatError>(mutateSection(
      goodBytes(), fourcc('W', 'H', 'L', 'S'), [](std::string& payload) {
        std::uint64_t slots = 0;
        std::memcpy(&slots, payload.data(), 8);
        ASSERT_GT(slots, 0u);
        dropRecord(payload, 0, 8 + (slots - 1) * kSlotRecordBytes,
                   kSlotRecordBytes);
      }));
}

/// The donor world under a loss + flooding-attack campaign open at the
/// save instant, so its checkpoint carries a FALT section.
Scenario campaignDonorScenario() {
  Scenario s = donorScenario();
  s.config.faultPlan = fault::parseFaultPlanText(
      "seed = 11\n"
      "[loss]\nfrom_h = 0.1\nto_h = 0.3\ndrop = 0.2\n"
      "[attack]\nfrom_h = 0.1\nto_h = 0.3\nperiod_s = 60\n"
      "kind = flooding\n");
  return s;
}

const std::string& goodCampaignBytes() {
  static const std::string bytes = [] {
    AvmemSimulation donor(campaignDonorScenario().config);
    donor.warmup(sim::SimDuration::minutes(10));
    EXPECT_NE(donor.faultInjector(), nullptr);
    std::ostringstream out(std::ios::binary);
    donor.saveCheckpoint(out);
    return out.str();
  }();
  return bytes;
}

/// `bytes` with section `tag` written twice in a row, both copies framed
/// behind valid CRCs.
std::string withRepeatedSection(const std::string& bytes, std::uint32_t tag) {
  auto sections = sectionsOf(bytes);
  for (auto it = sections.begin(); it != sections.end(); ++it) {
    if (it->first == tag) {
      const auto copy = *it;
      sections.insert(it + 1, copy);
      return reframe(bytes.substr(0, kHeaderBytes), sections);
    }
  }
  ADD_FAILURE() << "donor checkpoint lacks the section to repeat";
  return bytes;
}

TEST(SnapshotHostileTest, DuplicateSectionBehindValidCrc) {
  // Each known section appears once. A repeated one is a hand-edited or
  // spliced file, and must fail as a format error before anything is
  // installed, not let the last copy win or trip an owner's own check.
  {
    SCOPED_TRACE("repeated NODS");
    expectRestoreError<CheckpointFormatError>(
        withRepeatedSection(goodBytes(), fourcc('N', 'O', 'D', 'S')));
  }
  {
    SCOPED_TRACE("repeated FALT");
    expectRestoreError<CheckpointFormatError>(
        withRepeatedSection(goodCampaignBytes(), fourcc('F', 'A', 'L', 'T')),
        campaignDonorScenario().config, goodCampaignBytes());
  }
}

TEST(SnapshotHostileTest, FaultAttackCountMismatchBehindValidCrc) {
  // The fingerprint pins the campaign, so a FALT section with one attack
  // stage fewer than the plan is a corrupt file, caught while parsing.
  // FALT layout: the per-kind wire counters, six tallies, the stage
  // count, then per stage a timer (running u8, fire-at i64, seq u64) and
  // its sweep count (u64).
  constexpr std::size_t kCountAt = fault::kWireKindCount * 8 + 6 * 8;
  constexpr std::size_t kStageBytes = 1 + 8 + 8 + 8;
  expectRestoreError<CheckpointFormatError>(
      mutateSection(goodCampaignBytes(), fourcc('F', 'A', 'L', 'T'),
                    [](std::string& payload) {
                      ASSERT_EQ(payload.size(), kCountAt + 8 + kStageBytes);
                      dropRecord(payload, kCountAt, kCountAt + 8,
                                 kStageBytes);
                    }),
      campaignDonorScenario().config, goodCampaignBytes());
}

TEST(SnapshotHostileTest, TrailingBytesInKnownSectionBehindValidCrc) {
  // A known section's payload is consumed exactly; bytes past its last
  // field mean the writer and this reader disagree on the layout.
  const std::string& good = goodBytes();
  const auto clean = sectionsOf(good);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    SCOPED_TRACE("section #" + std::to_string(i));
    auto sections = clean;
    sections[i].second.push_back('\0');
    expectRestoreError<CheckpointFormatError>(
        reframe(good.substr(0, kHeaderBytes), sections));
  }
}

TEST(SnapshotHostileTest, ConfigFingerprintMismatch) {
  // A checkpoint from seed 3 must not restore into a seed-4 world.
  Scenario other = donorScenario();
  other.config.seed = 4;
  AvmemSimulation victim(other.config);
  std::istringstream in(goodBytes(), std::ios::binary);
  EXPECT_THROW(victim.restoreCheckpoint(in), CheckpointConfigError);
}

TEST(SnapshotHostileTest, SaveRefusesUnsupportedStates) {
  // Never started: nothing warm to save.
  AvmemSimulation cold(donorScenario().config);
  std::ostringstream out(std::ios::binary);
  EXPECT_THROW(cold.saveCheckpoint(out), CheckpointUnsupportedError);
}

TEST(SnapshotHostileTest, RestoreRefusesStartedSystem) {
  AvmemSimulation running(donorScenario().config);
  running.warmup(sim::SimDuration::minutes(5));
  std::istringstream in(goodBytes(), std::ios::binary);
  EXPECT_THROW(running.restoreCheckpoint(in), CheckpointUnsupportedError);
}

TEST(SnapshotHostileTest, MissingFileIsIoError) {
  AvmemSimulation victim(donorScenario().config);
  EXPECT_THROW(victim.restoreCheckpoint("/nonexistent/path/warm.avmem"),
               CheckpointIoError);
}

}  // namespace
}  // namespace avmem::snapshot
