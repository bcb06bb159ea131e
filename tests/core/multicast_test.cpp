// Multicast engine tests over small controlled simulations.
#include "core/multicast.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <tuple>

#include "core/simulation.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"

namespace avmem::core {
namespace {

SimulationConfig smallConfig(std::uint64_t seed = 21) {
  SimulationConfig cfg;
  cfg.trace.hosts = 150;
  cfg.backend = AvailabilityBackend::kOracle;
  cfg.seed = seed;
  return cfg;
}

TEST(MulticastTest, FloodReachesMostOfTheRange) {
  AvmemSimulation s(smallConfig());
  s.warmup(sim::SimDuration::hours(6));
  const auto initiator = s.pickInitiator(AvBand::high());
  ASSERT_TRUE(initiator.has_value());

  MulticastParams p;
  p.range = AvRange::threshold(0.7);
  p.mode = MulticastMode::kFlood;
  const auto r = s.runMulticast(*initiator, p);
  EXPECT_TRUE(r.reachedRange);
  EXPECT_GT(r.eligible, 10u);
  EXPECT_GT(r.reliability(), 0.85);
  // Under the oracle there is no estimate error: spam can only come from
  // refresh staleness, and must be small.
  EXPECT_LT(r.spamRatio(), 0.15);
}

TEST(MulticastTest, DeliveryLatenciesAreOrderedAndBounded) {
  AvmemSimulation s(smallConfig());
  s.warmup(sim::SimDuration::hours(6));
  const auto initiator = s.pickInitiator(AvBand::high());
  ASSERT_TRUE(initiator.has_value());

  MulticastParams p;
  p.range = AvRange::threshold(0.7);
  const auto r = s.runMulticast(*initiator, p);
  ASSERT_GT(r.deliveryLatencies.size(), 0u);
  for (const auto& lat : r.deliveryLatencies) {
    EXPECT_GE(lat, sim::SimDuration::zero());
    EXPECT_LE(lat, r.lastDeliveryLatency);
  }
}

TEST(MulticastTest, GossipTradesReliabilityForBandwidth) {
  AvmemSimulation sFlood(smallConfig());
  sFlood.warmup(sim::SimDuration::hours(6));
  const auto i1 = sFlood.pickInitiator(AvBand::high());
  ASSERT_TRUE(i1.has_value());
  MulticastParams flood;
  flood.range = AvRange::threshold(0.7);
  flood.mode = MulticastMode::kFlood;
  const auto before = sFlood.network().stats().sent;
  const auto rf = sFlood.runMulticast(*i1, flood);
  const auto floodMsgs = sFlood.network().stats().sent - before;

  AvmemSimulation sGossip(smallConfig());
  sGossip.warmup(sim::SimDuration::hours(6));
  const auto i2 = sGossip.pickInitiator(AvBand::high());
  ASSERT_TRUE(i2.has_value());
  MulticastParams gossip = flood;
  gossip.mode = MulticastMode::kGossip;
  gossip.fanout = 5;
  gossip.rounds = 2;
  const auto before2 = sGossip.network().stats().sent;
  const auto rg = sGossip.runMulticast(*i2, gossip);
  const auto gossipMsgs = sGossip.network().stats().sent - before2;

  // Gossip sends at most fanout x rounds per relay; flooding sends the
  // whole in-range neighbor list. Gossip must be cheaper per delivery.
  ASSERT_GT(rf.delivered, 0u);
  ASSERT_GT(rg.delivered, 0u);
  const double floodCost =
      static_cast<double>(floodMsgs) / static_cast<double>(rf.delivered);
  const double gossipCost =
      static_cast<double>(gossipMsgs) / static_cast<double>(rg.delivered);
  EXPECT_LT(gossipCost, floodCost);
  // And flooding must be at least as reliable.
  EXPECT_GE(rf.reliability() + 0.05, rg.reliability());
}

TEST(MulticastTest, InitiatorInsideRangeSkipsEntryAnycast) {
  AvmemSimulation s(smallConfig());
  s.warmup(sim::SimDuration::hours(6));
  // Find an online initiator already inside the range.
  MulticastParams p;
  p.range = AvRange::threshold(0.7);
  std::optional<net::NodeIndex> initiator;
  for (const auto i : s.onlineNodes()) {
    if (p.range.contains(s.trueAvailability(i)) &&
        p.range.contains(s.node(i).selfAvailability())) {
      initiator = i;
      break;
    }
  }
  ASSERT_TRUE(initiator.has_value());
  const auto r = s.runMulticast(*initiator, p);
  EXPECT_TRUE(r.reachedRange);
  // The initiator itself counts as delivered at latency 0.
  bool sawZero = false;
  for (const auto& lat : r.deliveryLatencies) {
    if (lat == sim::SimDuration::zero()) sawZero = true;
  }
  EXPECT_TRUE(sawZero);
}

TEST(MulticastTest, UnreachableRangeYieldsEmptyResult) {
  AvmemSimulation s(smallConfig());
  s.warmup(sim::SimDuration::hours(6));
  const auto initiator = s.pickInitiator(AvBand::high());
  ASSERT_TRUE(initiator.has_value());
  MulticastParams p;
  p.range = AvRange::closed(0.0, 0.001);  // nobody lives here
  const auto r = s.runMulticast(*initiator, p);
  EXPECT_FALSE(r.reachedRange);
  EXPECT_EQ(r.delivered, 0u);
  EXPECT_EQ(r.eligible, 0u);
}

TEST(MulticastTest, SequentialMulticastsEachComplete) {
  AvmemSimulation s(smallConfig());
  s.warmup(sim::SimDuration::hours(6));
  const auto initiator = s.pickInitiator(AvBand::high());
  ASSERT_TRUE(initiator.has_value());
  MulticastParams p;
  p.range = AvRange::threshold(0.5);
  // Each multicast is launched, run past its horizon and finalized
  // before the next starts; the second sees nothing of the first.
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    const auto r = s.runMulticast(*initiator, p);
    EXPECT_TRUE(r.reachedRange);
    EXPECT_GT(r.delivered, 0u);
    EXPECT_LE(r.delivered, r.eligible);
    EXPECT_EQ(r.deliveredNodes.size(), r.delivered);
  }
}

TEST(MulticastTest, DeliveredNodesAscendWithTheirLatencies) {
  for (const MulticastMode mode :
       {MulticastMode::kFlood, MulticastMode::kGossip}) {
    SCOPED_TRACE(toString(mode));
    AvmemSimulation s(smallConfig());
    s.warmup(sim::SimDuration::hours(6));
    const auto initiator = s.pickInitiator(AvBand::high());
    ASSERT_TRUE(initiator.has_value());
    MulticastParams p;
    p.range = AvRange::threshold(0.6);
    p.mode = mode;
    const auto r = s.runMulticast(*initiator, p);
    ASSERT_GT(r.delivered, 1u);
    ASSERT_EQ(r.deliveredNodes.size(), r.delivered);
    ASSERT_EQ(r.deliveryLatencies.size(), r.delivered);
    EXPECT_TRUE(std::ranges::adjacent_find(r.deliveredNodes,
                                           std::greater_equal<>()) ==
                r.deliveredNodes.end());
    EXPECT_EQ(std::ranges::max(r.deliveryLatencies), r.lastDeliveryLatency);
  }
}

TEST(MulticastTest, SendsCarryTheirSenderToTheFaultInjector) {
  // A loss stage scoped to a source region only matches messages whose
  // sender is known. With one region every node is inside the scope, and
  // zero dice leave every message untouched, so the datagram lane's
  // counter advances exactly when the multicast names its senders.
  for (const MulticastMode mode :
       {MulticastMode::kFlood, MulticastMode::kGossip}) {
    SCOPED_TRACE(toString(mode));
    SimulationConfig cfg = smallConfig();
    cfg.faultPlan.regions = 1;
    fault::LossStage scoped;
    scoped.fromUs = sim::SimDuration::hours(6).toMicros();
    scoped.toUs = sim::SimDuration::hours(30).toMicros();
    scoped.srcRegion = 0;
    cfg.faultPlan.loss.push_back(scoped);
    AvmemSimulation s(cfg);
    s.warmup(sim::SimDuration::hours(6));

    // An initiator inside the range multicasts with no entry anycast, so
    // every datagram consulted below is a multicast send.
    MulticastParams p;
    p.range = AvRange::threshold(0.7);
    p.mode = mode;
    std::optional<net::NodeIndex> initiator;
    for (const auto i : s.onlineNodes()) {
      if (p.range.contains(s.trueAvailability(i)) &&
          p.range.contains(s.node(i).selfAvailability())) {
        initiator = i;
        break;
      }
    }
    ASSERT_TRUE(initiator.has_value());
    ASSERT_NE(s.faultInjector(), nullptr);
    const auto datagrams = [&] {
      return std::get<0>(s.faultInjector()->persistedState())
          [static_cast<std::size_t>(fault::WireKind::kDatagram)];
    };
    const std::uint64_t before = datagrams();
    const auto r = s.runMulticast(*initiator, p);
    ASSERT_GT(r.delivered, 1u);
    EXPECT_GT(datagrams(), before);
  }
}

TEST(MulticastTest, ThresholdAndRangeFormsBothWork) {
  AvmemSimulation s(smallConfig());
  s.warmup(sim::SimDuration::hours(6));
  const auto initiator = s.pickInitiator(AvBand::mid());
  ASSERT_TRUE(initiator.has_value());

  MulticastParams range;
  range.range = AvRange::closed(0.6, 0.8);
  const auto rr = s.runMulticast(*initiator, range);

  MulticastParams threshold;
  threshold.range = AvRange::threshold(0.6);
  const auto rt = s.runMulticast(*initiator, threshold);

  // The threshold range strictly contains the closed range's population.
  EXPECT_GE(rt.eligible, rr.eligible);
}

// Mode x sliver-set sweep (the paper's six multicast algorithms).
struct McVariant {
  MulticastMode mode;
  SliverSet slivers;
};

class MulticastVariantTest : public ::testing::TestWithParam<McVariant> {};

TEST_P(MulticastVariantTest, AllVariantsProduceSaneResults) {
  AvmemSimulation s(smallConfig(31));
  s.warmup(sim::SimDuration::hours(6));
  const auto initiator = s.pickInitiator(AvBand::high());
  ASSERT_TRUE(initiator.has_value());

  MulticastParams p;
  p.range = AvRange::threshold(0.65);
  p.mode = GetParam().mode;
  p.slivers = GetParam().slivers;
  const auto r = s.runMulticast(*initiator, p);
  EXPECT_LE(r.delivered, r.eligible);
  EXPECT_LE(r.reliability(), 1.0);
  if (r.delivered > 0) {
    EXPECT_TRUE(r.reachedRange);
    EXPECT_GE(r.lastDeliveryLatency, sim::SimDuration::zero());
  }
}

INSTANTIATE_TEST_SUITE_P(
    SixVariants, MulticastVariantTest,
    ::testing::Values(McVariant{MulticastMode::kFlood, SliverSet::kHsOnly},
                      McVariant{MulticastMode::kFlood, SliverSet::kVsOnly},
                      McVariant{MulticastMode::kFlood, SliverSet::kHsAndVs},
                      McVariant{MulticastMode::kGossip, SliverSet::kHsOnly},
                      McVariant{MulticastMode::kGossip, SliverSet::kVsOnly},
                      McVariant{MulticastMode::kGossip, SliverSet::kHsAndVs}),
    [](const auto& info) {
      std::string name = std::string(toString(info.param.mode)) + "_" +
                         toString(info.param.slivers);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace avmem::core
