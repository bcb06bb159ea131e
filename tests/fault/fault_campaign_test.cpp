// Campaign behavior tests: hostile plans driven through the full
// simulation. Where tests/integration/failure_injection_test.cpp
// scripts service-level hostility by hand (FlakyAvailabilityService),
// these run the same classes of failure as *data* — fault plans — and
// check the system degrades gracefully and recovers.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/scenario.hpp"
#include "core/simulation.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"

namespace avmem::fault {
namespace {

using core::AvmemSimulation;
using core::SimulationConfig;

SimulationConfig scaleConfig(std::uint32_t hosts = 900,
                             std::uint64_t seed = 20070101) {
  return core::makeScaleScenario(hosts, seed).config;
}

double probeDelivery(AvmemSimulation& s, std::size_t batch = 20) {
  core::AnycastParams params;
  params.range = core::AvRange::threshold(0.7);
  params.strategy = core::AnycastStrategy::kRetriedGreedy;
  params.lossRetries = 2;
  return s.runAnycastBatch(core::AvBand::mid(), params, batch)
      .deliveredFraction();
}

TEST(FaultCampaignTest, WireStormDegradesThenRecovers) {
  SimulationConfig cfg = scaleConfig();
  cfg.faultPlan = parseFaultPlanText(
      "[loss]\n"
      "from_h = 0.25\nto_h = 0.6\n"
      "drop = 0.3\nduplicate = 0.1\ndelay = 0.2\ndelay_max_ms = 200\n");
  AvmemSimulation s(cfg);

  s.warmup(sim::SimDuration::minutes(30));  // 0.5h: mid-storm
  ASSERT_NE(s.faultInjector(), nullptr);
  const FaultStats midStats = s.faultInjector()->stats();
  EXPECT_GT(midStats.injectedDrops, 0u);
  EXPECT_GT(midStats.duplicated, 0u);
  EXPECT_GT(midStats.delayed, 0u);
  // The network saw the same injections the injector counted for the
  // datagram/ack lanes — and duplicates really delivered twice shows up
  // as delivered bookkeeping, not corruption.
  EXPECT_GT(s.network().stats().injectedDrops, 0u);
  EXPECT_GT(s.network().stats().duplicated, 0u);

  // Ride out the storm plus a recovery tail, then probe: the overlay
  // must be healthy again.
  s.warmup(sim::SimDuration::minutes(50));  // now at 1.33h, storm over
  const double recovered = probeDelivery(s);
  EXPECT_GE(recovered, 0.9);

  // Membership lists stayed valid through the storm.
  for (net::NodeIndex i = 0; i < s.nodeCount(); ++i) {
    for (const auto& e : s.node(i).horizontalSliver().snapshot()) {
      EXPECT_NE(e.peer, i);
      EXPECT_GE(e.cachedAv, 0.0);
      EXPECT_LE(e.cachedAv, 1.0);
    }
  }
}

TEST(FaultCampaignTest, ShuffleArenaStaysConsistentUnderStorm) {
  // Drop/duplicate storms exercise the shuffle channel's arena-span
  // bookkeeping (duplicates copy spans; drops orphan in-flight
  // records until their acks time out). Determinism witness: two
  // identical runs end with identical channel shape and stats.
  SimulationConfig cfg = scaleConfig(600, 11);
  cfg.faultPlan = parseFaultPlanText(
      "[loss]\nfrom_h = 0.2\nto_h = 0.5\n"
      "drop = 0.35\nduplicate = 0.25\ndelay = 0.1\ndelay_max_ms = 300\n");

  AvmemSimulation a(cfg);
  AvmemSimulation b(cfg);
  a.warmup(sim::SimDuration::minutes(42));
  b.warmup(sim::SimDuration::minutes(42));

  const auto& chA = a.shuffleService().channel();
  const auto& chB = b.shuffleService().channel();
  EXPECT_EQ(chA.arenaEntries(), chB.arenaEntries());
  EXPECT_EQ(chA.liveArenaEntries(), chB.liveArenaEntries());
  // Live spans are a subset of the arena by construction; equality of
  // both across runs plus this bound catches span-accounting leaks.
  EXPECT_LE(chA.liveArenaEntries(), chA.arenaEntries());
  EXPECT_EQ(a.shuffleService().viewDigest(), b.shuffleService().viewDigest());
  EXPECT_EQ(a.faultInjector()->stats().duplicated,
            b.faultInjector()->stats().duplicated);
}

TEST(FaultCampaignTest, RegionalOutageTakesRegionDownAndRecovers) {
  SimulationConfig cfg = scaleConfig();
  cfg.faultPlan = parseFaultPlanText(
      "[outage]\nfrom_h = 0.4\nto_h = 0.8\nregion = 3\n");
  AvmemSimulation s(cfg);

  // The outage window quantizes to whole 20-minute epochs: [0.4h, 0.8h)
  // claims epochs 1..2, i.e. sim-minutes [20, 60). Sample the baseline
  // inside epoch 0 and the outage inside epoch 1.
  s.warmup(sim::SimDuration::minutes(15));  // epoch 0: baseline
  const std::size_t onlineBefore = s.onlineNodes().size();

  s.warmup(sim::SimDuration::minutes(21));  // 36 min: outage in force
  const std::size_t onlineDuring = s.onlineNodes().size();
  // A whole hash-region (~1/8 of the population) is forced down; the
  // online count must visibly drop.
  EXPECT_LT(onlineDuring,
            onlineBefore - onlineBefore / 16);

  // Hosts of the dead region really are offline.
  const FaultInjector& inj = *s.faultInjector();
  std::size_t regionHosts = 0;
  for (net::NodeIndex i = 0; i < s.nodeCount(); ++i) {
    if (inj.regionOf(i) != 3) continue;
    ++regionHosts;
    EXPECT_FALSE(s.isOnline(i)) << "host " << i;
  }
  EXPECT_GT(regionHosts, 0u);

  s.warmup(sim::SimDuration::minutes(45));  // 81 min: outage over + tail
  EXPECT_GT(s.onlineNodes().size(), onlineDuring);
  EXPECT_GE(probeDelivery(s), 0.9);
}

TEST(FaultCampaignTest, FlashCrowdForcesJoinWave) {
  SimulationConfig cfg = scaleConfig(700, 13);
  cfg.faultPlan = parseFaultPlanText(
      "[flashcrowd]\nfrom_h = 0.5\nto_h = 0.8\nfraction = 0.4\n");
  AvmemSimulation s(cfg);

  // [0.5h, 0.8h) quantizes to epochs 1..2 = sim-minutes [20, 60).
  s.warmup(sim::SimDuration::minutes(15));  // epoch 0: before the wave
  const std::size_t before = s.onlineNodes().size();
  s.warmup(sim::SimDuration::minutes(21));  // 36 min: wave in force
  const std::size_t during = s.onlineNodes().size();
  // 40% of ALL hosts forced online on top of the trace's natural level.
  EXPECT_GT(during, before);
  // The membership fabric absorbs the wave without corrupting lists.
  for (net::NodeIndex i = 0; i < s.nodeCount(); ++i) {
    for (const auto& e : s.node(i).horizontalSliver().snapshot()) {
      EXPECT_NE(e.peer, i);
      EXPECT_GE(e.cachedAv, 0.0);
      EXPECT_LE(e.cachedAv, 1.0);
    }
  }
}

TEST(FaultCampaignTest, AttackCampaignRunsInsideItsWindowOnly) {
  SimulationConfig cfg = scaleConfig(600, 17);
  cfg.faultPlan = parseFaultPlanText(
      "[attack]\nfrom_h = 0.3\nto_h = 0.6\nperiod_s = 90\n"
      "kind = flooding\n");
  AvmemSimulation s(cfg);

  s.warmup(sim::SimDuration::minutes(15));  // 0.25h: before the window
  EXPECT_EQ(s.faultInjector()->stats().attackSweeps, 0u);

  s.warmup(sim::SimDuration::minutes(25));  // 0.67h: window passed
  const std::uint64_t sweeps = s.faultInjector()->stats().attackSweeps;
  // [0.3h, 0.6h) at a 90 s period = up to 12 firings; at least several
  // must have found an online attacker and swept.
  EXPECT_GT(sweeps, 3u);
  EXPECT_LE(sweeps, 13u);
  EXPECT_GT(s.faultInjector()->stats().attackTargets, 0u);

  s.warmup(sim::SimDuration::minutes(30));  // well past the window
  EXPECT_EQ(s.faultInjector()->stats().attackSweeps, sweeps)
      << "attack timer kept firing after its window closed";
}

TEST(FaultCampaignTest, PlanDrivenServiceHostilityKeepsListsValid) {
  // The injector-side port of the integration suite's flaky-service
  // outage test: instead of a hand-scripted AvailabilityService wrapper,
  // the same "most of the world goes dark" condition is expressed as
  // data — simultaneous outages of several regions — and Discovery must
  // stall gracefully, never corrupt lists, and resume afterwards.
  SimulationConfig cfg = scaleConfig(500, 5);
  cfg.faultPlan = parseFaultPlanText(
      "[outage]\nfrom_h = 0.4\nto_h = 0.7\nregion = 0\n"
      "[outage]\nfrom_h = 0.4\nto_h = 0.7\nregion = 1\n"
      "[outage]\nfrom_h = 0.4\nto_h = 0.7\nregion = 2\n"
      "[outage]\nfrom_h = 0.4\nto_h = 0.7\nregion = 3\n"
      "[outage]\nfrom_h = 0.4\nto_h = 0.7\nregion = 4\n"
      "[outage]\nfrom_h = 0.4\nto_h = 0.7\nregion = 5\n");
  AvmemSimulation s(cfg);
  s.warmup(sim::SimDuration::minutes(36));  // 0.6h: six regions dark
  for (net::NodeIndex i = 0; i < s.nodeCount(); ++i) {
    for (const auto& e : s.node(i).horizontalSliver().snapshot()) {
      EXPECT_NE(e.peer, i);
      EXPECT_GE(e.cachedAv, 0.0);
      EXPECT_LE(e.cachedAv, 1.0);
    }
  }
  s.warmup(sim::SimDuration::minutes(36));  // 1.2h: world back, healed
  EXPECT_GE(probeDelivery(s), 0.9);
}

}  // namespace
}  // namespace avmem::fault
