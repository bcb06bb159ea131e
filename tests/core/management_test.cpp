#include "core/management.hpp"

#include <gtest/gtest.h>

namespace avmem::core {
namespace {

class ManagementClientTest : public ::testing::Test {
 protected:
  ManagementClientTest() {
    SimulationConfig cfg;
    cfg.trace.hosts = 150;
    cfg.backend = AvailabilityBackend::kOracle;
    cfg.seed = 71;
    system_ = std::make_unique<AvmemSimulation>(cfg);
    system_->warmup(sim::SimDuration::hours(6));
    client_ = std::make_unique<ManagementClient>(*system_);
  }

  std::unique_ptr<AvmemSimulation> system_;
  std::unique_ptr<ManagementClient> client_;
};

TEST_F(ManagementClientTest, ThresholdAnycastFindsQualifiedNode) {
  const auto initiator = system_->pickInitiator(AvBand::mid());
  ASSERT_TRUE(initiator.has_value());
  const auto r = client_->thresholdAnycast(*initiator, 0.7);
  ASSERT_EQ(r.outcome, AnycastOutcome::kDelivered);
  EXPECT_GT(system_->trueAvailability(r.deliveredTo), 0.65);
}

TEST_F(ManagementClientTest, RangeAnycastLandsInside) {
  const auto initiator = system_->pickInitiator(AvBand::high());
  ASSERT_TRUE(initiator.has_value());
  const auto r = client_->rangeAnycast(*initiator, 0.4, 0.7);
  if (r.outcome == AnycastOutcome::kDelivered) {
    // Small tolerance: estimate drift between delivery decision and the
    // ground-truth read.
    const double av = system_->trueAvailability(r.deliveredTo);
    EXPECT_GT(av, 0.35);
    EXPECT_LT(av, 0.75);
  }
}

TEST_F(ManagementClientTest, ThresholdMulticastCoversSubscribers) {
  const auto initiator = system_->pickInitiator(AvBand::high());
  ASSERT_TRUE(initiator.has_value());
  const auto r = client_->thresholdMulticast(*initiator, 0.7);
  ASSERT_GT(r.eligible, 5u);
  EXPECT_GT(r.reliability(), 0.7);
}

TEST_F(ManagementClientTest, RangeAggregateComputesAttributeStats) {
  const auto initiator = system_->pickInitiator(AvBand::high());
  ASSERT_TRUE(initiator.has_value());
  // Attribute = 100 * availability: the aggregate mean must land inside
  // 100 * [lo, hi] (up to boundary drift).
  const auto agg = client_->rangeAggregate(
      *initiator, 0.6, 0.9,
      [this](net::NodeIndex n) {
        return 100.0 * system_->trueAvailability(n);
      });
  ASSERT_TRUE(agg.usable());
  EXPECT_GT(agg.attribute.mean(), 55.0);
  EXPECT_LT(agg.attribute.mean(), 95.0);
  EXPECT_EQ(agg.attribute.count(), agg.multicast.delivered);
}

TEST_F(ManagementClientTest, AggregateOnEmptyRangeIsUnusable) {
  const auto initiator = system_->pickInitiator(AvBand::high());
  ASSERT_TRUE(initiator.has_value());
  const auto agg = client_->rangeAggregate(
      *initiator, 0.0, 0.0001, [](net::NodeIndex) { return 1.0; });
  EXPECT_FALSE(agg.usable());
  EXPECT_EQ(agg.attribute.count(), 0u);
}

TEST_F(ManagementClientTest, DefaultsCanBeOverridden) {
  client_->setAnycastDefaults(AnycastStrategy::kGreedy, SliverSet::kVsOnly,
                              4, 2);
  const auto p = client_->anycastParams(AvRange::threshold(0.5));
  EXPECT_EQ(p.strategy, AnycastStrategy::kGreedy);
  EXPECT_EQ(p.slivers, SliverSet::kVsOnly);
  EXPECT_EQ(p.ttl, 4);
  EXPECT_EQ(p.retryBudget, 2);

  client_->setMulticastDefaults(SliverSet::kHsOnly, 3, 4);
  const auto m =
      client_->multicastParams(AvRange::threshold(0.5), MulticastMode::kGossip);
  EXPECT_EQ(m.slivers, SliverSet::kHsOnly);
  EXPECT_EQ(m.fanout, 3);
  EXPECT_EQ(m.rounds, 4);
  // Entry anycast stays retried-greedy regardless of the anycast default.
  EXPECT_EQ(m.entryAnycast.strategy, AnycastStrategy::kRetriedGreedy);
}

TEST(ManagementBackendsTest, OperationsWorkOnEveryAvailabilityBackend) {
  for (const auto backend :
       {AvailabilityBackend::kOracle, AvailabilityBackend::kNoisy,
        AvailabilityBackend::kAvmon}) {
    SimulationConfig cfg;
    cfg.trace.hosts = 120;
    cfg.backend = backend;
    cfg.seed = 83;
    AvmemSimulation s(cfg);
    s.warmup(sim::SimDuration::hours(6));
    ManagementClient client(s);
    const auto initiator = s.pickInitiator(AvBand::mid());
    if (!initiator) continue;
    const auto r = client.thresholdAnycast(*initiator, 0.6);
    // Operation must settle on every backend (success not guaranteed on
    // the stalest ones, termination is).
    EXPECT_NE(r.outcome, AnycastOutcome::kDropped)
        << "backend " << static_cast<int>(backend);
  }
}

}  // namespace
}  // namespace avmem::core
