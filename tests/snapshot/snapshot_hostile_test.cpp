// Hostile-input hardening: a checkpoint that is truncated, bit-flipped,
// version-skewed, config-skewed, or structurally lying must produce the
// matching typed CheckpointError — never UB, never a silent partial
// restore, never an attacker-sized allocation. CI runs this suite under
// AddressSanitizer, so any out-of-bounds parse the assertions miss still
// fails the job.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "core/simulation.hpp"
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

void expectRestoreThrows(
    const std::string& bytes, void (*check)(const CheckpointError&),
    const core::SimulationConfig& config = donorScenario().config) {
  AvmemSimulation victim(config);
  std::istringstream in(bytes, std::ios::binary);
  try {
    victim.restoreCheckpoint(in);
    FAIL() << "restore accepted hostile input";
  } catch (const CheckpointError& e) {
    check(e);
  }
  // A rejected restore must leave the system unstarted and event-free —
  // usable for a later, valid restore.
  EXPECT_EQ(victim.membershipEngine().stats().discoveryRounds, 0u);
}

template <typename Expected>
void expectRestoreError(
    const std::string& bytes,
    const core::SimulationConfig& config = donorScenario().config) {
  expectRestoreThrows(
      bytes,
      [](const CheckpointError& e) {
        EXPECT_NE(dynamic_cast<const Expected*>(&e), nullptr)
            << "wrong error type: " << e.what();
      },
      config);
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
  const std::string& good = goodAvmonBytes();
  auto sections = sectionsOf(good);
  bool found = false;
  for (auto& [id, payload] : sections) {
    if (id != fourcc('A', 'V', 'M', 'N')) continue;
    found = true;
    mutate(payload);
  }
  EXPECT_TRUE(found) << "donor checkpoint has no AVMN section";
  return reframe(good.substr(0, kHeaderBytes), sections);
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
        withCells([](std::vector<std::string>& c) { c[1] = c[0]; }), config);
  }
  {
    SCOPED_TRACE("descending targets");
    expectRestoreError<CheckpointFormatError>(
        withCells([](std::vector<std::string>& c) { std::swap(c[0], c[1]); }),
        config);
  }
  {
    SCOPED_TRACE("target past the population");
    expectRestoreError<CheckpointFormatError>(
        withCells([hosts](std::vector<std::string>& c) {
          const auto target = static_cast<std::uint32_t>(hosts);
          std::memcpy(c.back().data(), &target, 4);
        }),
        config);
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
      config);
}

TEST(SnapshotHostileTest, AvmonCellCounterLengthMismatchBehindValidCrc) {
  // A cell whose counter arrays are one longer than its target's monitor
  // set passes every parse check: only the monitor scan, which rebuilds
  // the set from the hash, can see it. That scan runs before anything is
  // installed, so the failed restore leaves the victim fresh, and the same
  // object then takes the good checkpoint.
  const core::SimulationConfig config = avmonDonorScenario().config;
  const std::string bad = mutateAvmn([](std::string& payload) {
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
  });

  AvmemSimulation victim(config);
  {
    std::istringstream in(bad, std::ios::binary);
    EXPECT_THROW(victim.restoreCheckpoint(in), CheckpointFormatError);
  }
  std::istringstream in(goodAvmonBytes(), std::ios::binary);
  ASSERT_NO_THROW(victim.restoreCheckpoint(in));
  std::ostringstream out(std::ios::binary);
  victim.saveCheckpoint(out);
  EXPECT_EQ(out.str(), goodAvmonBytes());
}

/// The donor world under a loss + flooding-attack campaign open at the
/// save instant, so its checkpoint carries a FALT section.
Scenario campaignDonorScenario() {
  Scenario s = donorScenario();
  s.config.faultPlanPath.clear();
  s.config.faultPlan = fault::parseFaultPlanText(
      "seed = 11\n"
      "[loss]\nfrom_h = 0.1\nto_h = 0.3\ndrop = 0.2\n"
      "[attack]\nfrom_h = 0.1\nto_h = 0.3\nperiod_s = 60\n"
      "kind = flooding\n");
  return s;
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
    const core::SimulationConfig config = campaignDonorScenario().config;
    AvmemSimulation donor(config);
    donor.warmup(sim::SimDuration::minutes(10));
    ASSERT_NE(donor.faultInjector(), nullptr);
    std::ostringstream out(std::ios::binary);
    donor.saveCheckpoint(out);
    expectRestoreError<CheckpointFormatError>(
        withRepeatedSection(out.str(), fourcc('F', 'A', 'L', 'T')), config);
  }
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
