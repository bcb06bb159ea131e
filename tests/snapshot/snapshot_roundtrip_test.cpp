// Round-trip property: serialize -> restore into a fresh system ->
// re-serialize must be BYTE-identical, across randomized warm worlds.
//
// Byte-identity is a deliberately stronger property than state equality:
// it proves the format is canonical (no padding bytes, no hash-order
// leakage, queue seqs normalized to dense ranks) and that restore loses
// nothing — any owner field the re-save path reads back differently
// shows up as a diff here long before it would skew a simulation result.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/simulation.hpp"
#include "snapshot/checkpoint.hpp"

namespace avmem::snapshot {
namespace {

using core::AvmemSimulation;
using core::Scenario;

/// One randomized world shape. Fields the fuzz loop varies; everything
/// else rides on the scale-scenario defaults.
struct WorldSpec {
  std::uint32_t hosts = 500;
  std::uint64_t seed = 1;
  core::AvailabilityBackend backend = core::AvailabilityBackend::kOracle;
  bool feed = true;
  /// Short periods put shuffle legs in flight at almost any save instant.
  std::int64_t shufflePeriodSecs = 60;
  /// Deliberately not a multiple of any protocol period, so the save
  /// instant lands mid-round with timers at unaligned offsets.
  std::int64_t warmupMins = 17;
};

Scenario makeScenarioFor(const WorldSpec& spec) {
  Scenario s = core::makeScaleScenario(spec.hosts, spec.seed);
  s.config.backend = spec.backend;
  s.config.candidateFeed.enabled = spec.feed;
  s.config.shuffle.period = sim::SimDuration::seconds(spec.shufflePeriodSecs);
  return s;
}

std::string checkpointBytes(const AvmemSimulation& system) {
  std::ostringstream out(std::ios::binary);
  system.saveCheckpoint(out);
  return out.str();
}

/// The property itself: warm up a world, save, restore the bytes into a
/// fresh identically-configured system, save again, compare bytes.
void expectRoundTrip(const WorldSpec& spec) {
  SCOPED_TRACE("hosts=" + std::to_string(spec.hosts) +
               " seed=" + std::to_string(spec.seed) +
               " backend=" + std::to_string(static_cast<int>(spec.backend)) +
               " feed=" + std::to_string(spec.feed) +
               " shufflePeriodSecs=" +
               std::to_string(spec.shufflePeriodSecs) +
               " warmupMins=" + std::to_string(spec.warmupMins));
  const Scenario scenario = makeScenarioFor(spec);

  AvmemSimulation donor(scenario.config);
  donor.warmup(sim::SimDuration::minutes(spec.warmupMins));
  const std::string first = checkpointBytes(donor);
  ASSERT_FALSE(first.empty());

  AvmemSimulation restored(scenario.config);
  std::istringstream in(first, std::ios::binary);
  restored.restoreCheckpoint(in);
  const std::string second = checkpointBytes(restored);

  // EXPECT_EQ on multi-MB strings prints unusable diffs; compare
  // explicitly and report the first differing offset instead.
  ASSERT_EQ(first.size(), second.size());
  if (first != second) {
    std::size_t at = 0;
    while (at < first.size() && first[at] == second[at]) ++at;
    FAIL() << "re-serialization diverged at byte " << at << " of "
           << first.size();
  }
}

TEST(SnapshotRoundtripTest, OracleWithFeedMidRound) {
  expectRoundTrip({.hosts = 800,
                   .seed = 11,
                   .backend = core::AvailabilityBackend::kOracle,
                   .feed = true,
                   .shufflePeriodSecs = 15,
                   .warmupMins = 17});
}

TEST(SnapshotRoundtripTest, NoisyBackendNoFeed) {
  expectRoundTrip({.hosts = 500,
                   .seed = 23,
                   .backend = core::AvailabilityBackend::kNoisy,
                   .feed = false,
                   .shufflePeriodSecs = 30,
                   .warmupMins = 11});
}

TEST(SnapshotRoundtripTest, RecordedTraceBackendHasNoMarkovSection) {
  // oracle-small materializes its trace (no Markov model), so the MRKV
  // section is absent — the optional-section path must round-trip too.
  Scenario s = core::makeScenario("oracle-small");
  AvmemSimulation donor(s.config);
  donor.warmup(sim::SimDuration::minutes(13));
  const std::string first = checkpointBytes(donor);

  AvmemSimulation restored(s.config);
  std::istringstream in(first, std::ios::binary);
  restored.restoreCheckpoint(in);
  EXPECT_EQ(checkpointBytes(restored), first);
}

TEST(SnapshotRoundtripTest, RandomizedWorlds) {
  // Deterministically seeded fuzz over the world-shape axes the format
  // has to get right simultaneously: population, backend, feed on/off,
  // in-flight shuffle density, and the save instant's phase inside the
  // maintenance rounds.
  std::mt19937_64 rng(20070740);
  std::uniform_int_distribution<std::uint32_t> hosts(200, 1200);
  std::uniform_int_distribution<std::uint64_t> seed(1, 1u << 30);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<std::int64_t> period(10, 90);
  std::uniform_int_distribution<std::int64_t> warm(7, 29);

  for (int round = 0; round < 6; ++round) {
    WorldSpec spec;
    spec.hosts = hosts(rng);
    spec.seed = seed(rng);
    spec.backend = coin(rng) != 0 ? core::AvailabilityBackend::kOracle
                                  : core::AvailabilityBackend::kNoisy;
    spec.feed = coin(rng) != 0;
    spec.shufflePeriodSecs = period(rng);
    spec.warmupMins = warm(rng);
    expectRoundTrip(spec);
  }
}

TEST(SnapshotRoundtripTest, RestoredWorldKeepsRunningDeterministically) {
  // Beyond byte-identity at the save instant: advancing donor and
  // restored worlds by the same delta must keep their checkpoints
  // byte-identical (the cheap in-suite cousin of the full
  // RestoreEqualsRunThrough gate in tests/core).
  const WorldSpec spec{.hosts = 600,
                       .seed = 5,
                       .backend = core::AvailabilityBackend::kOracle,
                       .feed = true,
                       .shufflePeriodSecs = 20,
                       .warmupMins = 15};
  const Scenario scenario = makeScenarioFor(spec);

  AvmemSimulation donor(scenario.config);
  donor.warmup(sim::SimDuration::minutes(spec.warmupMins));
  const std::string at_t = checkpointBytes(donor);
  donor.warmup(sim::SimDuration::minutes(10));
  const std::string donor_at_t2 = checkpointBytes(donor);

  AvmemSimulation restored(scenario.config);
  std::istringstream in(at_t, std::ios::binary);
  restored.restoreCheckpoint(in);
  restored.warmup(sim::SimDuration::minutes(10));
  EXPECT_EQ(checkpointBytes(restored), donor_at_t2);
}

TEST(SnapshotRoundtripTest, HeaderCarriesIdentity) {
  const WorldSpec spec{.hosts = 300, .seed = 99};
  const Scenario scenario = makeScenarioFor(spec);
  AvmemSimulation donor(scenario.config);
  donor.warmup(sim::SimDuration::minutes(8));
  const std::string bytes = checkpointBytes(donor);

  std::istringstream in(bytes, std::ios::binary);
  CheckpointReader reader(in);
  EXPECT_EQ(reader.header().version, kFormatVersion);
  EXPECT_EQ(reader.header().hosts, 300u);
  EXPECT_EQ(reader.header().seed, 99u);
  EXPECT_EQ(reader.header().fingerprint,
            configFingerprint(scenario.config));
}

}  // namespace
}  // namespace avmem::snapshot
