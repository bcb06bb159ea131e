// Fault-fabric equivalence suite — the acceptance gates of the chaos
// subsystem, as unit tests:
//
//  * a plan with no active stages is statistically indistinguishable
//    from no plan at all (the injector's no-draw guarantee end to end);
//  * an ACTIVE campaign is bit-identical across thread counts (every
//    fault decision comes from counter streams, never from scheduling);
//  * a checkpoint taken mid-campaign restores and continues to the same
//    bytes as running straight through;
//  * a checkpoint refuses to restore into a different (or absent)
//    campaign.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "core/scenario.hpp"
#include "core/simulation.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "snapshot/snapshot_io.hpp"

namespace avmem::fault {
namespace {

using core::AvmemSimulation;
using core::SimulationConfig;

// An all-stages campaign active during the test warm-up window (the
// scale trace has 20-minute epochs; the outage's [0.3h, 0.55h) window
// quantizes to epochs 0..1 and there is no flash crowd to collide with).
constexpr const char* kCampaign =
    "seed = 99\n"
    "regions = 8\n"
    "[loss]\n"
    "from_h = 0.25\nto_h = 0.6\n"
    "drop = 0.25\nduplicate = 0.05\ndelay = 0.1\ndelay_max_ms = 150\n"
    "[outage]\n"
    "from_h = 0.3\nto_h = 0.55\nregion = 1\n"
    "[attack]\n"
    "from_h = 0.25\nto_h = 0.6\nperiod_s = 120\nkind = flooding\n";

SimulationConfig baseConfig(std::uint32_t hosts = 900,
                            std::uint64_t seed = 20070101) {
  return core::makeScaleScenario(hosts, seed).config;
}

/// Everything simulation-visible a campaign could perturb.
struct Digest {
  std::uint64_t viewDigest = 0;
  std::uint64_t degreeSum = 0;
  net::NetworkStats net;
  FaultStats fault;
};

Digest digestOf(AvmemSimulation& s) {
  Digest d;
  d.viewDigest = s.shuffleService().viewDigest();
  for (net::NodeIndex i = 0; i < s.nodeCount(); ++i) {
    d.degreeSum += s.node(i).degree();
  }
  d.net = s.network().stats();
  if (s.faultInjector() != nullptr) d.fault = s.faultInjector()->stats();
  return d;
}

void expectSameWorld(const Digest& a, const Digest& b) {
  EXPECT_EQ(a.viewDigest, b.viewDigest);
  EXPECT_EQ(a.degreeSum, b.degreeSum);
  EXPECT_EQ(a.net.sent, b.net.sent);
  EXPECT_EQ(a.net.delivered, b.net.delivered);
  EXPECT_EQ(a.net.rejected, b.net.rejected);
  EXPECT_EQ(a.net.droppedOffline, b.net.droppedOffline);
  EXPECT_EQ(a.net.acksSent, b.net.acksSent);
  EXPECT_EQ(a.net.ackTimeouts, b.net.ackTimeouts);
  EXPECT_EQ(a.net.bytesSent, b.net.bytesSent);
  EXPECT_EQ(a.net.duplicated, b.net.duplicated);
  EXPECT_EQ(a.net.injectedDrops, b.net.injectedDrops);
  EXPECT_EQ(a.fault.injectedDrops, b.fault.injectedDrops);
  EXPECT_EQ(a.fault.duplicated, b.fault.duplicated);
  EXPECT_EQ(a.fault.delayed, b.fault.delayed);
  EXPECT_EQ(a.fault.attackSweeps, b.fault.attackSweeps);
  EXPECT_EQ(a.fault.attackTargets, b.fault.attackTargets);
}

std::string checkpointBytes(const AvmemSimulation& s) {
  std::ostringstream out(std::ios::binary);
  s.saveCheckpoint(out);
  return out.str();
}

TEST(FaultEquivalenceTest, NeverActivePlanMatchesPlanlessRun) {
  // Same world, one with no plan and one whose only stage opens at hour
  // 500 — far past the run. If the dormant injector draws, reorders, or
  // perturbs anything, some statistic diverges.
  SimulationConfig plain = baseConfig();
  SimulationConfig dormant = baseConfig();
  dormant.faultPlan = parseFaultPlanText(
      "[loss]\nfrom_h = 500\nto_h = 501\ndrop = 1.0\n");

  AvmemSimulation a(plain);
  AvmemSimulation b(dormant);
  ASSERT_EQ(a.faultInjector(), nullptr);
  ASSERT_NE(b.faultInjector(), nullptr);
  a.warmup(sim::SimDuration::minutes(54));
  b.warmup(sim::SimDuration::minutes(54));

  const Digest da = digestOf(a);
  const Digest db = digestOf(b);
  expectSameWorld(da, db);
  // And the dormant injector really never fired.
  EXPECT_EQ(db.fault.injectedDrops, 0u);
  EXPECT_EQ(db.fault.duplicated, 0u);
  EXPECT_EQ(db.fault.delayed, 0u);
  const auto& wireSeq = std::get<0>(
      std::as_const(*b.faultInjector()).persistedState());
  for (const std::uint64_t seq : wireSeq) EXPECT_EQ(seq, 0u);
}

TEST(FaultEquivalenceTest, ActiveCampaignIsThreadCountInvariant) {
  // The tentpole gate: one hostile campaign, three thread counts, one
  // world. Any divergence means a fault decision leaked scheduling
  // state.
  Digest reference;
  bool haveReference = false;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SimulationConfig cfg = baseConfig();
    cfg.faultPlan = parseFaultPlanText(kCampaign);
    cfg.maintenanceThreads = threads;
    AvmemSimulation s(cfg);
    s.warmup(sim::SimDuration::minutes(48));
    const Digest d = digestOf(s);
    // The campaign must actually have fired — an accidentally-dormant
    // plan would make this test pass vacuously.
    EXPECT_GT(d.fault.injectedDrops, 0u);
    EXPECT_GT(d.fault.duplicated, 0u);
    EXPECT_GT(d.fault.delayed, 0u);
    EXPECT_GT(d.fault.attackSweeps, 0u);
    if (!haveReference) {
      reference = d;
      haveReference = true;
    } else {
      expectSameWorld(reference, d);
    }
  }
}

TEST(FaultEquivalenceTest, MidCampaignCheckpointRestoreEqualsRunThrough) {
  SimulationConfig cfg = baseConfig();
  cfg.faultPlan = parseFaultPlanText(kCampaign);

  // Straight-through run: warm into the middle of the campaign, save,
  // keep going to past its end.
  AvmemSimulation donor(cfg);
  donor.warmup(sim::SimDuration::minutes(24));  // inside [0.25h, 0.6h)
  const std::string mid = checkpointBytes(donor);
  ASSERT_FALSE(mid.empty());
  // The save instant is mid-campaign: faults have fired, more to come.
  ASSERT_GT(donor.faultInjector()->stats().injectedDrops, 0u);
  donor.warmup(sim::SimDuration::minutes(24));
  const std::string straightFinal = checkpointBytes(donor);

  // Restored run: same config, restore the mid-campaign state, continue
  // the same distance. The final checkpoints must be BYTE-identical —
  // counter streams, attack timers, overlay state and all.
  AvmemSimulation restored(cfg);
  std::istringstream in(mid, std::ios::binary);
  restored.restoreCheckpoint(in);
  restored.warmup(sim::SimDuration::minutes(24));
  const std::string restoredFinal = checkpointBytes(restored);

  ASSERT_EQ(straightFinal.size(), restoredFinal.size());
  if (straightFinal != restoredFinal) {
    std::size_t at = 0;
    while (at < straightFinal.size() &&
           straightFinal[at] == restoredFinal[at]) {
      ++at;
    }
    FAIL() << "restored run diverged at byte " << at << " of "
           << straightFinal.size();
  }
}

TEST(FaultEquivalenceTest, CheckpointRefusesDifferentCampaign) {
  SimulationConfig cfg = baseConfig(500, 7);
  cfg.faultPlan = parseFaultPlanText(kCampaign);
  AvmemSimulation donor(cfg);
  donor.warmup(sim::SimDuration::minutes(20));
  const std::string bytes = checkpointBytes(donor);

  // Same world, nudged campaign: the plan fingerprint is part of the
  // config fingerprint, so restore must refuse.
  SimulationConfig other = cfg;
  other.faultPlan.loss[0].drop = 0.26;
  AvmemSimulation differentCampaign(other);
  std::istringstream inA(bytes, std::ios::binary);
  EXPECT_THROW(differentCampaign.restoreCheckpoint(inA),
               snapshot::CheckpointError);

  // No campaign at all: also a different world.
  SimulationConfig planless = cfg;
  planless.faultPlan = {};
  AvmemSimulation noCampaign(planless);
  std::istringstream inB(bytes, std::ios::binary);
  EXPECT_THROW(noCampaign.restoreCheckpoint(inB),
               snapshot::CheckpointError);
}

}  // namespace
}  // namespace avmem::fault
