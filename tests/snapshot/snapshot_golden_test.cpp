// Format pin: a committed v3 checkpoint must restore and re-save to the
// very same bytes. The roundtrip suite proves save∘restore is the identity
// on files this build writes; this test proves it on a file an *earlier*
// build wrote, so a serializer change that is self-consistent but moves a
// byte of the on-disk layout fails here.
//
// testdata/golden_v3.avmem was produced once, by the build that preceded
// the single-traversal checkpoint code, from goldenConfig() below: a
// 64-host scale world on the AVMON backend under a loss + flooding-attack
// campaign, warmed for 24 sim-minutes (inside both stage windows) and
// saved with AvmemSimulation::saveCheckpoint. It carries all twelve
// section tags (47,884 bytes). The file is data, not an output of this
// test: nothing here rewrites it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>

#include "core/scenario.hpp"
#include "core/simulation.hpp"
#include "fault/fault_plan.hpp"
#include "snapshot/checkpoint.hpp"

#ifndef AVMEM_SOURCE_DIR
#error "AVMEM_SOURCE_DIR must name the repository root"
#endif

namespace avmem::snapshot {
namespace {

/// The fault-equivalence suite's campaign without its outage stage: loss,
/// duplication and delay on the wire plus a flooding attacker, all active
/// over [0.25 h, 0.6 h).
constexpr const char* kCampaign =
    "seed = 99\n"
    "regions = 8\n"
    "[loss]\n"
    "from_h = 0.25\nto_h = 0.6\n"
    "drop = 0.25\nduplicate = 0.05\ndelay = 0.1\ndelay_max_ms = 150\n"
    "[attack]\n"
    "from_h = 0.25\nto_h = 0.6\nperiod_s = 120\nkind = flooding\n";

core::SimulationConfig goldenConfig() {
  core::Scenario s = core::makeScaleScenario(64, 20070101);
  s.config.backend = core::AvailabilityBackend::kAvmon;
  s.config.faultPlan = fault::parseFaultPlanText(kCampaign);
  return s.config;
}

std::string readGolden() {
  const std::string path =
      std::string(AVMEM_SOURCE_DIR) + "/tests/snapshot/testdata/golden_v3.avmem";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The section tags of a checkpoint file, in file order.
std::multiset<std::uint32_t> sectionTags(const std::string& bytes) {
  constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8 + 8;
  constexpr std::size_t kFrameBytes = 4 + 8 + 4;
  std::multiset<std::uint32_t> tags;
  std::size_t pos = kHeaderBytes;
  while (pos + kFrameBytes <= bytes.size()) {
    std::uint32_t id = 0;
    std::uint64_t len = 0;
    std::memcpy(&id, bytes.data() + pos, 4);
    std::memcpy(&len, bytes.data() + pos + 4, 8);
    tags.insert(id);
    pos += kFrameBytes + static_cast<std::size_t>(len);
  }
  EXPECT_EQ(pos, bytes.size()) << "section frames do not tile the file";
  return tags;
}

TEST(SnapshotGoldenTest, GoldenV3RestoresAndResavesByteIdentically) {
  const std::string golden = readGolden();
  ASSERT_FALSE(golden.empty());

  const std::multiset<std::uint32_t> tags = sectionTags(golden);
  for (const std::uint32_t tag :
       {fourcc('S', 'I', 'M', 'U'), fourcc('N', 'O', 'D', 'S'),
        fourcc('E', 'N', 'G', 'S'), fourcc('W', 'H', 'L', 'S'),
        fourcc('S', 'H', 'F', 'V'), fourcc('C', 'H', 'A', 'N'),
        fourcc('F', 'E', 'E', 'D'), fourcc('N', 'E', 'T', 'W'),
        fourcc('F', 'A', 'L', 'T'), fourcc('A', 'V', 'M', 'N'),
        fourcc('S', 'R', 'N', 'G'), fourcc('M', 'R', 'K', 'V')}) {
    EXPECT_EQ(tags.count(tag), 1u)
        << "golden lacks section " << std::string(
               reinterpret_cast<const char*>(&tag), 4);
  }
  EXPECT_EQ(tags.size(), 12u);

  core::AvmemSimulation restored(goldenConfig());
  std::istringstream in(golden, std::ios::binary);
  restored.restoreCheckpoint(in);
  std::ostringstream out(std::ios::binary);
  restored.saveCheckpoint(out);
  const std::string resaved = out.str();

  ASSERT_EQ(resaved.size(), golden.size());
  if (resaved != golden) {
    std::size_t at = 0;
    while (at < golden.size() && golden[at] == resaved[at]) ++at;
    FAIL() << "re-saved golden diverged at byte " << at << " of "
           << golden.size();
  }
}

TEST(SnapshotGoldenTest, RecordedTraceFingerprintsArePinned) {
  // The golden file is a Markov-trace world. These two registry scenarios
  // run on the recorded trace, and their fingerprints were computed by the
  // build that still had the dense/bit-packed split and the aged and
  // centralized availability backends: retiring those must not orphan a
  // recorded-trace checkpoint.
  EXPECT_EQ(configFingerprint(core::makeScenario("paper-default", {}).config),
            0x7bd4db3c9188983eull);
  EXPECT_EQ(configFingerprint(core::makeScenario("oracle-small", {}).config),
            0x157652a50d40fcf5ull);
}

}  // namespace
}  // namespace avmem::snapshot
