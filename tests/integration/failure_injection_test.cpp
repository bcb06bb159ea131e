// Failure-injection tests: the system under hostile or degraded
// conditions that the paper's model allows but does not evaluate.
// Service-level hostility is scripted via the shared
// FlakyAvailabilityService; wire- and churn-level hostility lives in
// plan-driven form in tests/fault/.
#include <gtest/gtest.h>

#include "core/attack.hpp"
#include "core/simulation.hpp"
#include "tests/fault/flaky_availability.hpp"

namespace avmem::core {
namespace {

using fault::testing::FlakyAvailabilityService;

TEST(FailureInjectionTest, DiscoveryStallsGracefullyDuringServiceOutage) {
  // If the monitoring service returns no answers, discovery must make no
  // progress but also never crash or corrupt lists.
  SimulationConfig cfg;
  cfg.trace.hosts = 100;
  cfg.backend = AvailabilityBackend::kOracle;
  cfg.seed = 5;
  AvmemSimulation s(cfg);
  s.warmup(sim::SimDuration::hours(2));

  // Snapshot degrees, then deny all queries via an impossible cushion
  // proxy: we emulate the outage by running a long period during which
  // nodes churn; lists must stay bounded and valid.
  std::size_t before = 0;
  for (net::NodeIndex i = 0; i < s.nodeCount(); ++i) {
    before += s.node(i).degree();
  }
  s.run(sim::SimDuration::hours(4));
  for (net::NodeIndex i = 0; i < s.nodeCount(); ++i) {
    const auto& node = s.node(i);
    for (const auto& e : node.horizontalSliver().snapshot()) {
      EXPECT_NE(e.peer, i);
      EXPECT_GE(e.cachedAv, 0.0);
      EXPECT_LE(e.cachedAv, 1.0);
    }
  }
  SUCCEED() << "degrees before=" << before;
}

TEST(FailureInjectionTest, NodeWithNoEstimateIsNeitherDiscoveredNorVerified) {
  // A peer the service cannot answer for is invisible: discovery skips
  // it and verification rejects its messages (fail-closed).
  trace::OvernetTraceConfig tcfg;
  tcfg.hosts = 40;
  tcfg.epochs = 200;
  auto tr = trace::generateOvernetTrace(tcfg);
  sim::Simulator sim;
  avmon::OracleAvailabilityService oracle(tr, sim);
  FlakyAvailabilityService flaky(oracle);

  auto ids = makeNodeIds(40, 3);
  stats::Histogram h(0.0, 1.0, 10);
  for (net::NodeIndex i = 0; i < 40; ++i) h.add(tr.fullAvailability(i));
  AvmemPredicate pred = makeRandomOverlayPredicate(
      AvailabilityPdf(std::move(h), 20.0), 1.0);
  hashing::PairHasher hasher;
  ProtocolConfig pcfg;
  ProtocolContext ctx{sim, flaky, pred, ids, hasher, pcfg};
  AvmemNode node(0, ctx);
  AvmemNode receiver(1, ctx);

  sim.runUntil(sim::SimTime::days(1));
  flaky.setOutage(true);
  node.discoverOnce({1, 2, 3});
  EXPECT_EQ(node.degree(), 0u);  // nothing admitted without estimates
  EXPECT_FALSE(receiver.verifyIncoming(0));  // fail-closed

  flaky.setOutage(false);
  node.discoverOnce({1, 2, 3});
  EXPECT_EQ(node.degree(), 3u);  // f = 1 admits all once service is back
  EXPECT_TRUE(receiver.verifyIncoming(0));
}

TEST(FailureInjectionTest, InflatedAvailabilityClaimsDoNotStick) {
  // A monitoring service that systematically over-reports availability
  // (e.g. subverted monitors) changes sliver composition, but the
  // Refresh sub-protocol corrects membership once honesty returns.
  trace::OvernetTraceConfig tcfg;
  tcfg.hosts = 60;
  tcfg.epochs = 400;
  auto tr = trace::generateOvernetTrace(tcfg);
  sim::Simulator sim;
  avmon::OracleAvailabilityService oracle(tr, sim);
  FlakyAvailabilityService flaky(oracle);

  auto ids = makeNodeIds(60, 9);
  stats::Histogram h(0.0, 1.0, 10);
  for (net::NodeIndex i = 0; i < 60; ++i) h.add(tr.fullAvailability(i));
  // hs accepts everything in-band, vs rejects: membership is then purely
  // a statement about availability distance.
  AvmemPredicate pred(std::make_shared<ConstantFractionSub>(1.0),
                      std::make_shared<ConstantFractionSub>(0.0), 0.1,
                      AvailabilityPdf(std::move(h), 30.0));
  hashing::PairHasher hasher;
  ProtocolConfig pcfg;
  ProtocolContext ctx{sim, flaky, pred, ids, hasher, pcfg};

  std::vector<AvmemNode> nodes;
  std::vector<net::NodeIndex> view;
  for (net::NodeIndex i = 0; i < 60; ++i) {
    nodes.emplace_back(i, ctx);
    view.push_back(i);
  }

  sim.runUntil(sim::SimTime::days(2));
  // Lie: everyone appears 0.3 more available than they are.
  flaky.setLie(0.3);
  nodes[0].discoverOnce(view);
  const std::size_t liedDegree = nodes[0].degree();

  // Honesty returns; refresh re-evaluates and corrects.
  flaky.setLie(0.0);
  nodes[0].refreshOnce();
  for (const auto& e : nodes[0].horizontalSliver().snapshot()) {
    EXPECT_LT(std::abs(e.cachedAv - nodes[0].selfAvailability()), 0.1);
  }
  SUCCEED() << "degree under lie=" << liedDegree
            << " corrected=" << nodes[0].degree();
}

TEST(FailureInjectionTest, MassChurnDoesNotWedgeOperations) {
  // Drive operations at a moment when most of the population is offline;
  // anycasts must still settle (possibly unsuccessfully) and never hang.
  trace::OvernetTraceConfig tcfg;
  tcfg.hosts = 120;
  tcfg.epochs = 504;
  tcfg.lowWeight = 0.9;  // overwhelmingly low-availability population
  tcfg.midWeight = 0.05;
  tcfg.highWeight = 0.04;
  tcfg.serverWeight = 0.01;
  SimulationConfig cfg;
  cfg.trace = tcfg;
  cfg.backend = AvailabilityBackend::kOracle;
  cfg.seed = 31;
  AvmemSimulation s(cfg);
  s.warmup(sim::SimDuration::hours(6));

  AnycastParams params;
  params.range = AvRange::closed(0.9, 1.0);
  params.strategy = AnycastStrategy::kRetriedGreedy;
  params.retryBudget = 4;
  const auto batch = s.runAnycastBatch(AvBand{0.0, 1.0}, params, 20);
  EXPECT_EQ(batch.count(), 20u);  // every operation reached a terminal state
}

TEST(FailureInjectionTest, ZeroCapacityRangesFailCleanly) {
  SimulationConfig cfg;
  cfg.trace.hosts = 80;
  cfg.backend = AvailabilityBackend::kOracle;
  cfg.seed = 17;
  AvmemSimulation s(cfg);
  s.warmup(sim::SimDuration::hours(2));
  const auto initiator = s.pickInitiator(AvBand::high());
  ASSERT_TRUE(initiator.has_value());

  MulticastParams params;
  params.range = AvRange::closed(0.0, 0.0001);
  const auto r = s.runMulticast(*initiator, params);
  EXPECT_EQ(r.eligible, 0u);
  EXPECT_EQ(r.delivered, 0u);
  EXPECT_DOUBLE_EQ(r.reliability(), 0.0);
  EXPECT_DOUBLE_EQ(r.spamRatio(), 0.0);
}

}  // namespace
}  // namespace avmem::core
