#include "avmon/avmon_monitors.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "trace/overnet_generator.hpp"

namespace avmem::avmon {
namespace {

class AvmonTest : public ::testing::Test {
 protected:
  AvmonTest() {
    trace::OvernetTraceConfig cfg;
    cfg.hosts = 300;
    cfg.epochs = 300;
    trace_ = std::make_unique<trace::ChurnTrace>(
        trace::generateOvernetTrace(cfg));
    ids_ = core::makeNodeIds(300, 5);
    AvmonConfig acfg;
    acfg.expectedMonitorsPerTarget = 8.0;
    system_ = std::make_unique<AvmonSystem>(*trace_, sim_, ids_, acfg);
    // Estimates advance via epoch-boundary fold events now; arm them so
    // runUntil() drives the counters exactly like a live simulation.
    system_->start();
  }

  sim::Simulator sim_;
  std::unique_ptr<trace::ChurnTrace> trace_;
  std::vector<core::NodeId> ids_;
  std::unique_ptr<AvmonSystem> system_;
};

TEST_F(AvmonTest, MonitorSetsHaveExpectedSize) {
  double total = 0;
  for (net::NodeIndex t = 0; t < 300; ++t) {
    total += static_cast<double>(system_->monitorsOf(t).size());
  }
  // Expected 8 per target; the mean over 300 targets concentrates.
  EXPECT_NEAR(total / 300.0, 8.0, 1.5);
}

TEST_F(AvmonTest, MonitorRelationIsConsistentAndVerifiable) {
  // The precomputed table must agree with independent re-evaluation.
  for (net::NodeIndex t = 0; t < 50; ++t) {
    for (const net::NodeIndex m : system_->monitorsOf(t)) {
      EXPECT_TRUE(system_->isMonitor(m, t));
    }
  }
  // A node never monitors itself.
  for (net::NodeIndex t = 0; t < 300; ++t) {
    EXPECT_FALSE(system_->isMonitor(t, t));
  }
}

TEST_F(AvmonTest, MonitorRelationIsRebuildIdentical) {
  // Consistency across independently constructed instances (two "parties").
  AvmonConfig acfg;
  acfg.expectedMonitorsPerTarget = 8.0;
  AvmonSystem other(*trace_, sim_, ids_, acfg);
  for (net::NodeIndex t = 0; t < 300; ++t) {
    EXPECT_EQ(system_->monitorsOf(t), other.monitorsOf(t));
  }
}

TEST_F(AvmonTest, EstimatesConvergeToTraceAvailability) {
  sim_.runUntil(sim::SimTime::days(3));
  AvmonAvailabilityService svc(*system_);

  double errSum = 0.0;
  int n = 0;
  for (net::NodeIndex t = 0; t < 300; ++t) {
    const auto est = svc.query(/*querier=*/(t + 1) % 300, t);
    if (!est) continue;
    errSum += std::abs(*est - trace_->availabilityAt(t, sim_.now()));
    ++n;
  }
  ASSERT_GT(n, 250);
  EXPECT_LT(errSum / n, 0.05);  // mean error a few percent after 3 days
}

TEST_F(AvmonTest, NoEstimateBeforeAnyFullEpoch) {
  // At time zero no epoch has completed: every answer must be nullopt.
  AvmonAvailabilityService svc(*system_);
  int informed = 0;
  for (net::NodeIndex t = 0; t < 100; ++t) {
    if (svc.query(0, t)) ++informed;
  }
  EXPECT_EQ(informed, 0);
}

TEST_F(AvmonTest, ThrowsOnIdTraceMismatch) {
  auto shortIds = core::makeNodeIds(10, 5);
  AvmonConfig acfg;
  EXPECT_THROW(AvmonSystem(*trace_, sim_, shortIds, acfg),
               std::invalid_argument);
}

TEST_F(AvmonTest, QuerierDependenceThroughMonitorReachability) {
  // Answers may differ across queriers because each aggregates only the
  // monitors currently reachable (online) — except a monitor querying its
  // own target, which always has its local samples. Probe exactly that
  // asymmetry: compare an offline monitor's self-sourced answer with a
  // bystander's aggregate.
  sim_.runUntil(sim::SimTime::days(2));
  AvmonAvailabilityService svc(*system_);
  int disagreements = 0;
  int compared = 0;
  for (net::NodeIndex t = 0; t < 300; ++t) {
    for (const net::NodeIndex m : system_->monitorsOf(t)) {
      if (trace_->onlineAt(m, sim_.now())) continue;  // want offline monitor
      const auto fromMonitor = svc.query(m, t);
      const auto fromBystander = svc.query((t + 1) % 300, t);
      if (!fromMonitor || !fromBystander) continue;
      ++compared;
      if (*fromMonitor != *fromBystander) ++disagreements;
    }
  }
  ASSERT_GT(compared, 50);
  EXPECT_GT(disagreements, 0);
}

TEST_F(AvmonTest, ThrowsOnBadExpectedMonitors) {
  for (const double bad :
       {0.0, -3.0, 300.0, 5000.0, std::nan(""),
        std::numeric_limits<double>::infinity()}) {
    AvmonConfig acfg;
    acfg.expectedMonitorsPerTarget = bad;
    EXPECT_THROW(AvmonSystem(*trace_, sim_, ids_, acfg),
                 std::invalid_argument)
        << "k = " << bad;
  }
}

TEST_F(AvmonTest, EstimatesAreFrozenBetweenEpochBoundaries) {
  // 20-minute epochs: counters fold at boundaries only, and the online
  // set is epoch-granular too, so any two mid-epoch instants give
  // bit-identical answers.
  AvmonAvailabilityService svc(*system_);
  sim_.runUntil(sim::SimTime::hours(40) + sim::SimDuration::minutes(1));
  std::vector<std::optional<double>> early;
  for (net::NodeIndex t = 0; t < 100; ++t) {
    early.push_back(svc.query((t + 1) % 300, t));
  }
  sim_.runUntil(sim::SimTime::hours(40) + sim::SimDuration::minutes(19));
  for (net::NodeIndex t = 0; t < 100; ++t) {
    EXPECT_EQ(early[t], svc.query((t + 1) % 300, t)) << "target " << t;
  }
}

TEST_F(AvmonTest, MonitorCountersAnswersAnyPairByValue) {
  sim_.runUntil(sim::SimTime::days(1));
  // Pick a (monitor, target) pair and a non-monitor pair.
  const net::NodeIndex target = 7;
  ASSERT_FALSE(system_->monitorsOf(target).empty());
  const net::NodeIndex m = system_->monitorsOf(target).front();
  net::NodeIndex outsider = 0;
  while (system_->isMonitor(outsider, target) || outsider == target) {
    ++outsider;
  }

  // The returned counters are a value: materializing every other cell
  // afterwards (the legacy rehash hazard — a second lookup used to be
  // able to invalidate a held reference) must leave the copy intact.
  const AvmonSystem::EstimateCell held = system_->monitorCounters(m, target);
  for (net::NodeIndex t = 0; t < 300; ++t) {
    (void)system_->monitorsOf(t);
    (void)system_->monitorCounters((t + 5) % 300, t);
  }
  const AvmonSystem::EstimateCell again = system_->monitorCounters(m, target);
  EXPECT_EQ(held.nextEpoch, again.nextEpoch);
  EXPECT_EQ(held.samples, again.samples);
  EXPECT_EQ(held.up, again.up);

  // Every pair is answerable; counters equal the pure trace derivation.
  const auto reference = [&](net::NodeIndex mon, net::NodeIndex tgt) {
    AvmonSystem::EstimateCell ref;
    ref.nextEpoch = static_cast<std::size_t>(system_->advancedEpochs());
    for (std::size_t e = 0; e < ref.nextEpoch; ++e) {
      if (!trace_->onlineInEpoch(mon, e)) continue;
      ++ref.samples;
      if (trace_->onlineInEpoch(tgt, e)) ++ref.up;
    }
    return ref;
  };
  for (const net::NodeIndex probe : {m, outsider}) {
    const AvmonSystem::EstimateCell got =
        system_->monitorCounters(probe, target);
    const AvmonSystem::EstimateCell ref = reference(probe, target);
    EXPECT_EQ(got.nextEpoch, ref.nextEpoch);
    EXPECT_EQ(got.samples, ref.samples);
    EXPECT_EQ(got.up, ref.up);
  }
}

TEST_F(AvmonTest, LateMaterializationCatchesUpExactly) {
  // Target A materializes before any fold, target B only after two days:
  // B's catch-up counters must equal A's fold-built ones in structure —
  // both equal the pure trace derivation (no fault plan here).
  const net::NodeIndex a = 11;
  (void)system_->monitorsOf(a);  // materialize now
  sim_.runUntil(sim::SimTime::days(2));
  const net::NodeIndex b = 23;

  for (const net::NodeIndex t : {a, b}) {
    for (const net::NodeIndex m : system_->monitorsOf(t)) {
      const AvmonSystem::EstimateCell got = system_->monitorCounters(m, t);
      std::uint32_t samples = 0;
      std::uint32_t up = 0;
      for (std::size_t e = 0; e < got.nextEpoch; ++e) {
        if (!trace_->onlineInEpoch(m, e)) continue;
        ++samples;
        if (trace_->onlineInEpoch(t, e)) ++up;
      }
      EXPECT_EQ(got.samples, samples) << "t=" << t << " m=" << m;
      EXPECT_EQ(got.up, up) << "t=" << t << " m=" << m;
    }
  }
}

TEST_F(AvmonTest, Fast64RelationMatchesScalarPredicate) {
  // The batched kernel path (scanMonitors) must agree with the scalar
  // hasher behind isMonitor, entry for entry.
  AvmonConfig acfg;
  acfg.expectedMonitorsPerTarget = 8.0;
  acfg.hashAlgorithm = hashing::PairHashAlgorithm::kFast64;
  acfg.hashSeed = 0x5EEDull;
  AvmonSystem fast(*trace_, sim_, ids_, acfg);
  for (net::NodeIndex t = 0; t < 300; ++t) {
    std::vector<net::NodeIndex> expected;
    for (net::NodeIndex m = 0; m < 300; ++m) {
      if (fast.isMonitor(m, t)) expected.push_back(m);
    }
    EXPECT_EQ(fast.monitorsOf(t), expected) << "target " << t;
  }
}

}  // namespace
}  // namespace avmem::avmon
