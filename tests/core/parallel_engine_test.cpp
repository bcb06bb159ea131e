// Parallel shard dispatch determinism: a scale scenario run with the
// maintenance plan phase on 1, 2, and 8 threads must be bit-identical —
// engine counters, per-node protocol counters, overlay degree histogram,
// sliver contents, and anycast behaviour. This is the acceptance property
// of the plan/commit protocol: plans are read-only against shared state
// and commits apply in slot order, so the worker interleaving cannot leak
// into results.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/scenario.hpp"
#include "core/simulation.hpp"

namespace avmem::core {
namespace {

/// Everything observable a run produces, in comparable form.
struct RunFingerprint {
  std::size_t effectiveThreads = 0;
  MembershipEngineStats engine;
  NodeStats nodeTotals;  ///< per-node counters summed over the population
  std::map<std::size_t, std::size_t> degreeHistogram;
  std::uint64_t sliverDigest = 0;  ///< order-sensitive hash of all slivers
  std::uint64_t viewDigest = 0;    ///< order-sensitive hash of all views
  std::uint64_t completedShuffles = 0;
  net::NetworkStats net;  ///< wire traffic, byte-exact
  std::vector<std::tuple<int, int, std::int64_t, net::NodeIndex>> anycasts;

  bool operator==(const RunFingerprint& o) const {
    return engine.discoveryRounds == o.engine.discoveryRounds &&
           engine.refreshRounds == o.engine.refreshRounds &&
           engine.skippedOffline == o.engine.skippedOffline &&
           engine.feedCandidates == o.engine.feedCandidates &&
           nodeTotals.discoveryRounds == o.nodeTotals.discoveryRounds &&
           nodeTotals.refreshRounds == o.nodeTotals.refreshRounds &&
           nodeTotals.neighborsDiscovered ==
               o.nodeTotals.neighborsDiscovered &&
           nodeTotals.neighborsEvicted == o.nodeTotals.neighborsEvicted &&
           nodeTotals.availabilityQueries ==
               o.nodeTotals.availabilityQueries &&
           degreeHistogram == o.degreeHistogram &&
           sliverDigest == o.sliverDigest && viewDigest == o.viewDigest &&
           completedShuffles == o.completedShuffles &&
           net.sent == o.net.sent && net.delivered == o.net.delivered &&
           net.rejected == o.net.rejected &&
           net.droppedOffline == o.net.droppedOffline &&
           net.acksSent == o.net.acksSent &&
           net.ackTimeouts == o.net.ackTimeouts &&
           net.bytesSent == o.net.bytesSent && anycasts == o.anycasts;
  }
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

/// Fingerprint an already-warm system (including a fresh anycast batch,
/// which draws from the facade RNG — so RNG state divergence shows too).
RunFingerprint collectFingerprint(AvmemSimulation& system) {
  RunFingerprint fp;
  fp.effectiveThreads = system.maintenanceThreads();
  fp.engine = system.membershipEngine().stats();
  for (net::NodeIndex i = 0; i < system.nodeCount(); ++i) {
    const AvmemNode& node = system.node(i);
    const NodeStats& s = node.stats();
    fp.nodeTotals.discoveryRounds += s.discoveryRounds;
    fp.nodeTotals.refreshRounds += s.refreshRounds;
    fp.nodeTotals.neighborsDiscovered += s.neighborsDiscovered;
    fp.nodeTotals.neighborsEvicted += s.neighborsEvicted;
    fp.nodeTotals.availabilityQueries += s.availabilityQueries;
    ++fp.degreeHistogram[node.degree()];
    // Order-sensitive digest over both slivers: any divergence in
    // membership, cached availability, or entry order shows up.
    for (const auto& entry : node.horizontalSliver().snapshot()) {
      fp.sliverDigest = mix(fp.sliverDigest, entry.peer);
      fp.sliverDigest =
          mix(fp.sliverDigest,
              static_cast<std::uint64_t>(entry.cachedAv * 1e12));
    }
    for (const auto& entry : node.verticalSliver().snapshot()) {
      fp.sliverDigest = mix(fp.sliverDigest, entry.peer);
      fp.sliverDigest =
          mix(fp.sliverDigest,
              static_cast<std::uint64_t>(entry.cachedAv * 1e12));
    }
  }

  fp.viewDigest = system.shuffleService().viewDigest();
  fp.completedShuffles = system.shuffleService().completedShuffles();
  fp.net = system.network().stats();

  AnycastParams params;
  params.range = AvRange::threshold(0.7);
  params.strategy = AnycastStrategy::kRetriedGreedy;
  const auto batch =
      system.runAnycastBatch(AvBand::mid(), params, /*count=*/10);
  for (const auto& r : batch.results) {
    fp.anycasts.emplace_back(static_cast<int>(r.outcome), r.hops,
                             r.latency.toMicros(), r.deliveredTo);
  }
  return fp;
}

RunFingerprint runScale(std::uint32_t hosts, std::size_t threads) {
  auto scenario = makeScaleScenario(hosts, /*seed=*/77);
  scenario.config.maintenanceThreads = threads;

  AvmemSimulation system(scenario.config);
  system.warmup(sim::SimDuration::minutes(30));
  return collectFingerprint(system);
}

TEST(ParallelEngineTest, ScaleRunIsThreadCountInvariant) {
  const RunFingerprint serial = runScale(10'000, 1);
  EXPECT_EQ(serial.effectiveThreads, 1u);
  ASSERT_GT(serial.engine.discoveryRounds, 0u);
  ASSERT_FALSE(serial.anycasts.empty());

  RunFingerprint two = runScale(10'000, 2);
  EXPECT_EQ(two.effectiveThreads, 2u);
  two.effectiveThreads = serial.effectiveThreads;
  EXPECT_TRUE(two == serial)
      << "threads=2 diverged from the serial run";

  RunFingerprint eight = runScale(10'000, 8);
  EXPECT_EQ(eight.effectiveThreads, 8u);
  eight.effectiveThreads = serial.effectiveThreads;
  EXPECT_TRUE(eight == serial)
      << "threads=8 diverged from the serial run";
}

TEST(ParallelEngineTest, RestoreEqualsRunThrough) {
  // The warm-state checkpoint acceptance gate (snapshot/checkpoint.hpp):
  // checkpoint a 10k-node world at the end of its warm-up, then restoring
  // and running +30 sim-minutes — at ANY thread count, from a checkpoint
  // saved at ANY thread count — must be bit-identical to the serial donor
  // running straight through. Everything observable is compared: digests,
  // per-node counters, wire stats, and a post-window anycast batch (which
  // proves the facade RNG survived the round trip too).
  const auto warmDonor = [](std::size_t threads) {
    auto scenario = makeScaleScenario(10'000, /*seed=*/77);
    scenario.config.maintenanceThreads = threads;
    auto donor = std::make_unique<AvmemSimulation>(scenario.config);
    donor->warmup(sim::SimDuration::minutes(30));
    return donor;
  };
  const auto checkpointOf = [](const AvmemSimulation& donor) {
    std::ostringstream checkpoint(std::ios::binary);
    donor.saveCheckpoint(checkpoint);
    return checkpoint.str();
  };

  auto serialDonor = warmDonor(1);
  const std::string serialBytes = checkpointOf(*serialDonor);
  ASSERT_FALSE(serialBytes.empty());
  serialDonor->warmup(sim::SimDuration::minutes(30));
  const RunFingerprint straightThrough = collectFingerprint(*serialDonor);
  ASSERT_GT(straightThrough.engine.discoveryRounds, 0u);
  ASSERT_FALSE(straightThrough.anycasts.empty());
  serialDonor.reset();

  // An 8-thread donor's checkpoint must restore exactly like a serial
  // one's: the plan fan-out leaves nothing thread-dependent in saved state.
  const std::string parallelBytes = checkpointOf(*warmDonor(8));

  const std::pair<std::size_t, const std::string*> donors[] = {
      {1, &serialBytes}, {8, &parallelBytes}};
  for (const auto& [donorThreads, bytes] : donors) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("donor threads=" + std::to_string(donorThreads) +
                   " restore threads=" + std::to_string(threads));
      auto restoredScenario = makeScaleScenario(10'000, /*seed=*/77);
      restoredScenario.config.maintenanceThreads = threads;

      AvmemSimulation restored(restoredScenario.config);
      std::istringstream in(*bytes, std::ios::binary);
      restored.restoreCheckpoint(in);
      restored.warmup(sim::SimDuration::minutes(30));

      RunFingerprint fp = collectFingerprint(restored);
      fp.effectiveThreads = straightThrough.effectiveThreads;
      EXPECT_TRUE(fp == straightThrough)
          << "restored run diverged from the straight-through donor";
    }
  }
}

TEST(ParallelEngineTest, PaperWorldIsThreadCountInvariant) {
  // The paper's setup (AVMON service, SHA-1 pair hash) plans in parallel:
  // the hash is a pure function and AVMON queries read frozen counters,
  // while monitor cells materialize on whichever worker asks first. Four
  // threads must reproduce the serial run, AVMON traffic and the
  // materialized set included.
  auto runPaper = [](std::size_t threads) {
    auto scenario = makeScenario("paper-default", {.fast = true});
    scenario.config.maintenanceThreads = threads;
    AvmemSimulation system(scenario.config);
    system.warmup(scenario.warmup);
    RunFingerprint fp = collectFingerprint(system);
    const avmon::AvmonSystem* avmon = system.avmonSystem();
    return std::tuple(fp, avmon->pingStats(), avmon->materializedTargets());
  };

  const auto [serial, serialPings, serialTargets] = runPaper(1);
  EXPECT_EQ(serial.effectiveThreads, 1u);
  ASSERT_GT(serial.engine.discoveryRounds, 0u);
  ASSERT_GT(serialPings.sent, 0u);
  ASSERT_GT(serialTargets, 0u);

  auto [four, fourPings, fourTargets] = runPaper(4);
  EXPECT_EQ(four.effectiveThreads, 4u);
  four.effectiveThreads = serial.effectiveThreads;
  EXPECT_TRUE(four == serial) << "threads=4 diverged from the serial run";
  EXPECT_EQ(fourPings.sent, serialPings.sent);
  EXPECT_EQ(fourPings.delivered, serialPings.delivered);
  EXPECT_EQ(fourPings.lostToFaults, serialPings.lostToFaults);
  EXPECT_EQ(fourPings.bytes, serialPings.bytes);
  EXPECT_EQ(fourTargets, serialTargets);
}

TEST(ParallelEngineTest, ShuffleHeavyRunIsThreadCountInvariant) {
  // Gossip-dominated workload: the shuffle fires every 15 s (vs the
  // 1-minute default), so the batched plan/commit exchange path — partner
  // choice and subset sampling from counter streams in initiation plans,
  // per-node merge groups planned across the pool at delivery batches —
  // carries most of the run. View digests, shuffle counts, and the
  // byte-exact wire stats must not depend on the thread count.
  auto runShuffleHeavy = [](std::size_t threads) {
    auto scenario = makeScaleScenario(2'000, /*seed=*/41);
    scenario.config.shuffle.period = sim::SimDuration::seconds(15);
    scenario.config.maintenanceThreads = threads;
    AvmemSimulation system(scenario.config);
    system.warmup(sim::SimDuration::minutes(15));

    RunFingerprint fp;
    fp.effectiveThreads = system.maintenanceThreads();
    fp.viewDigest = system.shuffleService().viewDigest();
    fp.completedShuffles = system.shuffleService().completedShuffles();
    fp.net = system.network().stats();
    for (net::NodeIndex i = 0; i < system.nodeCount(); ++i) {
      ++fp.degreeHistogram[system.node(i).degree()];
    }
    return fp;
  };

  const RunFingerprint serial = runShuffleHeavy(1);
  EXPECT_EQ(serial.effectiveThreads, 1u);
  ASSERT_GT(serial.completedShuffles, 0u);
  ASSERT_GT(serial.net.ackTimeouts, 0u);  // churn makes some partners dead

  RunFingerprint two = runShuffleHeavy(2);
  EXPECT_EQ(two.effectiveThreads, 2u);
  two.effectiveThreads = serial.effectiveThreads;
  EXPECT_TRUE(two == serial) << "threads=2 diverged from the serial run";

  RunFingerprint eight = runShuffleHeavy(8);
  EXPECT_EQ(eight.effectiveThreads, 8u);
  eight.effectiveThreads = serial.effectiveThreads;
  EXPECT_TRUE(eight == serial) << "threads=8 diverged from the serial run";
}

TEST(ParallelEngineTest, CandidateFeedRunIsThreadCountInvariant) {
  // Feed-dominated workload: cranked scan budgets make the rendezvous
  // draws the bulk of every discovery plan. Draws run concurrently in the
  // plan phase but come from counter-based streams over a frozen
  // snapshot, and publications/seals live on the serial side — slivers,
  // feed counters, and the directory itself must not depend on the
  // thread count.
  auto runFeedHeavy = [](std::size_t threads) {
    auto scenario = makeScaleScenario(2'000, /*seed=*/67);
    scenario.config.candidateFeed.horizontalScanBudget = 256;
    scenario.config.candidateFeed.verticalScanBudget = 128;
    scenario.config.maintenanceThreads = threads;
    AvmemSimulation system(scenario.config);
    system.warmup(sim::SimDuration::minutes(40));

    RunFingerprint fp;
    fp.effectiveThreads = system.maintenanceThreads();
    fp.engine = system.membershipEngine().stats();
    for (net::NodeIndex i = 0; i < system.nodeCount(); ++i) {
      const AvmemNode& node = system.node(i);
      ++fp.degreeHistogram[node.degree()];
      for (const auto& entry : node.horizontalSliver().snapshot()) {
        fp.sliverDigest = mix(fp.sliverDigest, entry.peer);
      }
      for (const auto& entry : node.verticalSliver().snapshot()) {
        fp.sliverDigest = mix(fp.sliverDigest, entry.peer);
      }
    }
    const CandidateFeed* feed = system.candidateFeed();
    fp.sliverDigest = mix(fp.sliverDigest, feed->directoryPopulation());
    fp.sliverDigest = mix(fp.sliverDigest, feed->epochsSealed());
    return fp;
  };

  const RunFingerprint serial = runFeedHeavy(1);
  EXPECT_EQ(serial.effectiveThreads, 1u);
  ASSERT_GT(serial.engine.feedCandidates, 0u);

  RunFingerprint two = runFeedHeavy(2);
  EXPECT_EQ(two.effectiveThreads, 2u);
  two.effectiveThreads = serial.effectiveThreads;
  EXPECT_TRUE(two == serial) << "threads=2 diverged from the serial run";

  RunFingerprint eight = runFeedHeavy(8);
  EXPECT_EQ(eight.effectiveThreads, 8u);
  eight.effectiveThreads = serial.effectiveThreads;
  EXPECT_TRUE(eight == serial) << "threads=8 diverged from the serial run";
}

TEST(ParallelEngineTest, CoarseViewOverlayIsThreadCountInvariant) {
  // The Figure-10 baseline path (adopt-the-view rounds) goes through the
  // same plan/commit machinery; a small oracle-backed overlay run must be
  // thread-count-invariant too.
  auto runCoarse = [](std::size_t threads) {
    auto scenario = makeScaleScenario(2'000, /*seed=*/9);
    scenario.config.useCoarseViewOverlay = true;
    scenario.config.maintenanceThreads = threads;
    AvmemSimulation system(scenario.config);
    system.warmup(sim::SimDuration::minutes(20));
    std::map<std::size_t, std::size_t> degrees;
    for (net::NodeIndex i = 0; i < system.nodeCount(); ++i) {
      ++degrees[system.node(i).degree()];
    }
    return degrees;
  };
  const auto serial = runCoarse(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(runCoarse(4), serial);
}

}  // namespace
}  // namespace avmem::core
