// AVMON on the plan/commit architecture (PR 9), end to end: a
// scale-avmon scenario must (a) actually run the maintenance plan phase
// in parallel — the AVMON service answers queries as pure reads of
// frozen counters — (b) produce bit-identical results at
// any thread count, and (c) survive the
// warm-state checkpoint round trip, AVMN section included.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "avmon/avmon_monitors.hpp"
#include "core/scenario.hpp"
#include "core/simulation.hpp"

namespace avmem::avmon {
namespace {

using core::AvmemSimulation;
using core::Scenario;

/// Everything observable an avmon-backed run produces, in comparable
/// form. Queries go through the real service path, so monitor-set
/// content, counter state, and reachability skips all feed the compare.
struct AvmonRunFingerprint {
  std::size_t effectiveThreads = 0;
  std::uint64_t discoveryRounds = 0;
  std::uint64_t availabilityQueries = 0;
  std::uint64_t advancedEpochs = 0;
  std::size_t materializedTargets = 0;
  AvmonSystem::PingStats pings;
  std::uint64_t viewDigest = 0;
  net::NetworkStats net;
  std::map<std::size_t, std::size_t> degreeHistogram;
  std::vector<std::optional<double>> answers;

  bool operator==(const AvmonRunFingerprint& o) const {
    return discoveryRounds == o.discoveryRounds &&
           availabilityQueries == o.availabilityQueries &&
           advancedEpochs == o.advancedEpochs &&
           materializedTargets == o.materializedTargets &&
           pings.sent == o.pings.sent &&
           pings.delivered == o.pings.delivered &&
           pings.lostToFaults == o.pings.lostToFaults &&
           pings.bytes == o.pings.bytes && viewDigest == o.viewDigest &&
           net.sent == o.net.sent && net.delivered == o.net.delivered &&
           net.droppedOffline == o.net.droppedOffline &&
           net.acksSent == o.net.acksSent &&
           net.bytesSent == o.net.bytesSent &&
           degreeHistogram == o.degreeHistogram && answers == o.answers;
  }
};

Scenario makeAvmonScenario(std::size_t threads) {
  Scenario s = core::makeScenario("scale-avmon-100k", {.fast = true});
  s.config.maintenanceThreads = threads;
  return s;
}

AvmonRunFingerprint collectFingerprint(AvmemSimulation& system) {
  AvmonRunFingerprint fp;
  fp.effectiveThreads = system.maintenanceThreads();
  fp.discoveryRounds = system.membershipEngine().stats().discoveryRounds;
  for (net::NodeIndex i = 0; i < system.nodeCount(); ++i) {
    fp.availabilityQueries += system.node(i).stats().availabilityQueries;
    ++fp.degreeHistogram[system.node(i).degree()];
  }
  const AvmonSystem* avmon = system.avmonSystem();
  fp.advancedEpochs = avmon->advancedEpochs();
  fp.materializedTargets = avmon->materializedTargets();
  fp.pings = avmon->pingStats();
  fp.viewDigest = system.shuffleService().viewDigest();
  fp.net = system.network().stats();
  const net::NodeIndex n = system.nodeCount();
  for (net::NodeIndex t = 0; t < n; t += 17) {
    fp.answers.push_back(system.availabilityService().query((t + 1) % n, t));
  }
  return fp;
}

AvmonRunFingerprint runAvmon(std::size_t threads) {
  Scenario s = makeAvmonScenario(threads);
  AvmemSimulation system(s.config);
  system.warmup(sim::SimDuration::minutes(45));
  return collectFingerprint(system);
}

TEST(AvmonScaleTest, BackendClearsTheParallelGate) {
  // The refactor's headline: kAvmon plans on every requested thread
  // (frozen counters + pure-read query path).
  Scenario s = makeAvmonScenario(8);
  AvmemSimulation system(s.config);
  EXPECT_EQ(system.maintenanceThreads(), 8u);
}

TEST(AvmonScaleTest, RunIsThreadCountInvariant) {
  // The acceptance gate: 2 and 8 threads both produce the serial run bit
  // for bit.
  const AvmonRunFingerprint serial = runAvmon(1);
  EXPECT_EQ(serial.effectiveThreads, 1u);
  ASSERT_GT(serial.discoveryRounds, 0u);
  ASSERT_GT(serial.advancedEpochs, 0u);
  ASSERT_GT(serial.pings.sent, 0u);
  ASSERT_GT(serial.materializedTargets, 0u);

  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    AvmonRunFingerprint fp = runAvmon(threads);
    EXPECT_EQ(fp.effectiveThreads, threads);
    fp.effectiveThreads = serial.effectiveThreads;
    EXPECT_TRUE(fp == serial) << "diverged from the serial run";
  }
}

TEST(AvmonScaleTest, CheckpointRoundTripIsByteIdentical) {
  // Save -> restore into a fresh system -> re-save must reproduce the
  // bytes, AVMN section (fold cursor, ping ledger, materialized cells,
  // pending epoch-fold timer) included.
  Scenario s = makeAvmonScenario(1);
  AvmemSimulation donor(s.config);
  donor.warmup(sim::SimDuration::minutes(45));
  ASSERT_GT(donor.avmonSystem()->materializedTargets(), 0u);

  std::ostringstream out(std::ios::binary);
  donor.saveCheckpoint(out);
  const std::string first = out.str();
  ASSERT_FALSE(first.empty());

  AvmemSimulation restored(s.config);
  std::istringstream in(first, std::ios::binary);
  restored.restoreCheckpoint(in);
  std::ostringstream again(std::ios::binary);
  restored.saveCheckpoint(again);
  const std::string second = again.str();

  ASSERT_EQ(first.size(), second.size());
  if (first != second) {
    std::size_t at = 0;
    while (at < first.size() && first[at] == second[at]) ++at;
    FAIL() << "re-serialization diverged at byte " << at << " of "
           << first.size();
  }
}

TEST(AvmonScaleTest, RestoreEqualsRunThrough) {
  // Restoring mid-run and continuing — at any thread count — must be
  // bit-identical to the donor running straight
  // through. This is the property that makes avmon checkpoints usable:
  // the fold timer re-arms at the saved instant and the catch-up path
  // starts from restored counters, not from epoch zero.
  Scenario s = makeAvmonScenario(1);
  AvmemSimulation donor(s.config);
  donor.warmup(sim::SimDuration::minutes(45));
  std::ostringstream out(std::ios::binary);
  donor.saveCheckpoint(out);
  const std::string bytes = out.str();
  ASSERT_FALSE(bytes.empty());

  donor.warmup(sim::SimDuration::minutes(45));
  const AvmonRunFingerprint straightThrough = collectFingerprint(donor);
  ASSERT_GT(straightThrough.advancedEpochs, 1u);
  ASSERT_GT(straightThrough.pings.sent, 0u);

  for (const std::size_t threads : {1u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Scenario rs = makeAvmonScenario(threads);
    AvmemSimulation restored(rs.config);
    std::istringstream in(bytes, std::ios::binary);
    restored.restoreCheckpoint(in);
    restored.warmup(sim::SimDuration::minutes(45));

    AvmonRunFingerprint fp = collectFingerprint(restored);
    fp.effectiveThreads = straightThrough.effectiveThreads;
    EXPECT_TRUE(fp == straightThrough)
        << "restored run diverged from the straight-through donor";
  }
}

}  // namespace
}  // namespace avmem::avmon
