#include "net/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "net/latency.hpp"

namespace avmem::net {
namespace {

/// Test fixture with a controllable online set.
class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() {
    online_.insert({0, 1, 2, 3});
    network_ = std::make_unique<Network>(
        sim_, [this](NodeIndex n) { return online_.contains(n); },
        std::make_unique<ConstantLatency>(sim::SimDuration::millis(50)),
        sim::Rng(1));
  }

  sim::Simulator sim_;
  std::set<NodeIndex> online_;
  std::unique_ptr<Network> network_;
};

TEST_F(NetworkTest, DeliversToOnlineNodeAfterLatency) {
  bool delivered = false;
  sim::SimTime at;
  network_->send(0, 1, [&](sim::SimTime t) {
    delivered = true;
    at = t;
  });
  sim_.runAll();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(at, sim::SimTime::millis(50));
  EXPECT_EQ(network_->stats().delivered, 1u);
}

TEST_F(NetworkTest, DropsToOfflineNode) {
  online_.erase(2);
  bool delivered = false;
  network_->send(0, 2, [&](sim::SimTime) { delivered = true; });
  sim_.runAll();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(network_->stats().droppedOffline, 1u);
}

TEST_F(NetworkTest, OnlineCheckedAtDeliveryInstantNotSendInstant) {
  // Node goes offline while the message is in flight: must drop.
  bool delivered = false;
  network_->send(0, 3, [&](sim::SimTime) { delivered = true; });
  sim_.schedule(sim::SimDuration::millis(10), [&] { online_.erase(3); });
  sim_.runAll();
  EXPECT_FALSE(delivered);

  // And the converse: node comes online while in flight: must deliver.
  network_->send(0, 9, [&](sim::SimTime) { delivered = true; });
  sim_.schedule(sim::SimDuration::millis(10), [&] { online_.insert(9); });
  sim_.runAll();
  EXPECT_TRUE(delivered);
}

TEST_F(NetworkTest, AckOnAcceptanceSuppressesTheTimeout) {
  bool timedOut = false;
  network_->sendWithAck(
      0, 1, [](sim::SimTime) { return true; }, [&] { timedOut = true; },
      sim::SimDuration::millis(300));
  sim_.runAll();
  EXPECT_FALSE(timedOut);
  EXPECT_EQ(network_->stats().acksSent, 1u);
  EXPECT_EQ(network_->stats().ackTimeouts, 0u);
}

TEST_F(NetworkTest, TimeoutFiresWhenReceiverOffline) {
  online_.erase(1);
  bool timedOut = false;
  network_->sendWithAck(
      0, 1, [](sim::SimTime) { return true; }, [&] { timedOut = true; },
      sim::SimDuration::millis(300));
  sim_.runAll();
  EXPECT_TRUE(timedOut);
  EXPECT_EQ(network_->stats().ackTimeouts, 1u);
  EXPECT_EQ(sim_.now(), sim::SimTime::millis(300));
}

TEST_F(NetworkTest, TimeoutFiresWhenReceiverRejects) {
  bool delivered = false;
  bool timedOut = false;
  network_->sendWithAck(
      0, 1,
      [&](sim::SimTime) {
        delivered = true;
        return false;  // receiver-side verification failed
      },
      [&] { timedOut = true; }, sim::SimDuration::millis(300));
  sim_.runAll();
  EXPECT_TRUE(delivered);
  EXPECT_TRUE(timedOut);
  EXPECT_EQ(network_->stats().acksSent, 0u);
  // A rejection is counted as delivered (the wire did its job) *and* as
  // rejected, so overhead analyses can tell it apart from an offline drop.
  EXPECT_EQ(network_->stats().delivered, 1u);
  EXPECT_EQ(network_->stats().rejected, 1u);
  EXPECT_EQ(network_->stats().droppedOffline, 0u);
}

TEST_F(NetworkTest, OfflineDropIsNotCountedRejected) {
  online_.erase(1);
  network_->sendWithAck(
      0, 1, [](sim::SimTime) { return false; }, [] {},
      sim::SimDuration::millis(300));
  sim_.runAll();
  EXPECT_EQ(network_->stats().droppedOffline, 1u);
  EXPECT_EQ(network_->stats().rejected, 0u);
  EXPECT_EQ(network_->stats().delivered, 0u);
}

TEST_F(NetworkTest, TimeoutRunsOnlyIfNoAckSettledFirst) {
  // The ack arrives at 100 ms (50 + 50). A 100 ms timeout ties with it
  // and wins (it was scheduled first); one microsecond later the ack has
  // settled the exchange and the timeout never runs.
  int timeouts = 0;
  network_->sendWithAck(
      0, 1, [](sim::SimTime) { return true; }, [&] { ++timeouts; },
      sim::SimDuration::millis(100));
  sim_.runAll();
  EXPECT_EQ(timeouts, 1);
  network_->sendWithAck(
      0, 1, [](sim::SimTime) { return true; }, [&] { ++timeouts; },
      sim::SimDuration::micros(100'001));
  sim_.runAll();
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(network_->stats().ackTimeouts, 1u);
}

TEST_F(NetworkTest, ByteAccounting) {
  network_->send(0, 1, [](sim::SimTime) {}, 500);
  sim_.runAll();
  EXPECT_EQ(network_->stats().bytesSent, 500u);
  network_->resetStats();
  EXPECT_EQ(network_->stats().bytesSent, 0u);
  EXPECT_EQ(network_->stats().sent, 0u);
}

// --- the wire under an installed fault injector ---------------------------
//
// A twin injector built from the same plan replays the verdicts the
// network draws (they are pure functions of plan seed, lane and per-lane
// counter), so each test can state the exact instants at which copies
// land and the exact counters both sides keep.

/// One loss stage over [fromUs, 1h), no region scope.
fault::FaultPlan wirePlan(double drop, double duplicate, double delay,
                          std::int64_t fromUs = 0) {
  fault::FaultPlan p;
  fault::LossStage s;
  s.fromUs = fromUs;
  s.toUs = sim::SimDuration::hours(1).toMicros();
  s.drop = drop;
  s.duplicate = duplicate;
  s.delay = delay;
  s.delayMaxUs = 20'000;
  p.loss.push_back(s);
  return p;
}

sim::SimTime atMicros(std::int64_t us) { return sim::SimTime::micros(us); }

constexpr std::int64_t kLatUs = 50'000;  // the fixture's constant latency

TEST_F(NetworkTest, InjectedDatagramDropDeliversNothing) {
  fault::FaultInjector injector(wirePlan(1.0, 0.0, 0.0));
  network_->setFaultInjector(&injector);
  int deliveries = 0;
  network_->send(0, 1, [&](sim::SimTime) { ++deliveries; }, 100);
  sim_.runAll();
  EXPECT_EQ(deliveries, 0);
  const NetworkStats& ns = network_->stats();
  EXPECT_EQ(ns.sent, 1u);
  EXPECT_EQ(ns.bytesSent, 100u);
  EXPECT_EQ(ns.delivered, 0u);
  EXPECT_EQ(ns.droppedOffline, 0u);
  EXPECT_EQ(ns.injectedDrops, 1u);
  EXPECT_EQ(ns.duplicated, 0u);
  EXPECT_EQ(injector.stats().injectedDrops, 1u);
  EXPECT_EQ(injector.stats().duplicated, 0u);
}

TEST_F(NetworkTest, InjectedDatagramDuplicateLandsAtBothInstants) {
  const fault::FaultPlan plan = wirePlan(0.0, 1.0, 1.0);
  fault::FaultInjector injector(plan);
  fault::FaultInjector twin(plan);
  network_->setFaultInjector(&injector);
  const fault::WireVerdict v =
      twin.onWire(fault::WireKind::kDatagram, 0, 1, 0);
  ASSERT_TRUE(v.duplicate);
  ASSERT_GT(v.extraDelayUs, 0);

  std::vector<sim::SimTime> at;
  network_->send(0, 1, [&](sim::SimTime t) { at.push_back(t); });
  sim_.runAll();
  // The primary carries the extra delay; the copy lands duplicateDelayUs
  // past the bare latency.
  std::vector<sim::SimTime> want = {atMicros(kLatUs + v.duplicateDelayUs),
                                    atMicros(kLatUs + v.extraDelayUs)};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(at, want);
  const NetworkStats& ns = network_->stats();
  EXPECT_EQ(ns.sent, 1u);
  EXPECT_EQ(ns.delivered, 2u);
  EXPECT_EQ(ns.duplicated, 1u);
  EXPECT_EQ(ns.injectedDrops, 0u);
  EXPECT_EQ(injector.stats().duplicated, 1u);
  EXPECT_EQ(injector.stats().delayed, 1u);
  EXPECT_EQ(injector.stats().injectedDrops, 0u);
}

TEST_F(NetworkTest, InjectedRequestDropLeavesOnlyTheTimeout) {
  fault::FaultInjector injector(wirePlan(1.0, 0.0, 0.0));
  network_->setFaultInjector(&injector);
  int deliveries = 0;
  bool timedOut = false;
  network_->sendWithAck(
      0, 1,
      [&](sim::SimTime) {
        ++deliveries;
        return true;
      },
      [&] { timedOut = true; }, sim::SimDuration::millis(300));
  sim_.runAll();
  EXPECT_EQ(deliveries, 0);
  EXPECT_TRUE(timedOut);
  EXPECT_EQ(sim_.now(), sim::SimTime::millis(300));
  const NetworkStats& ns = network_->stats();
  EXPECT_EQ(ns.sent, 1u);
  EXPECT_EQ(ns.delivered, 0u);
  EXPECT_EQ(ns.acksSent, 0u);
  EXPECT_EQ(ns.ackTimeouts, 1u);
  EXPECT_EQ(ns.injectedDrops, 1u);
  EXPECT_EQ(injector.stats().injectedDrops, 1u);
}

TEST_F(NetworkTest, InjectedAckDropTimesOutDespiteAcceptance) {
  // The stage opens at the request's delivery instant: the request (sent
  // at 0) passes untouched and only the ack leg is consulted inside it.
  fault::FaultInjector injector(wirePlan(1.0, 0.0, 0.0, kLatUs));
  network_->setFaultInjector(&injector);
  int deliveries = 0;
  bool timedOut = false;
  network_->sendWithAck(
      0, 1,
      [&](sim::SimTime) {
        ++deliveries;
        return true;
      },
      [&] { timedOut = true; }, sim::SimDuration::millis(300));
  sim_.runAll();
  EXPECT_EQ(deliveries, 1);
  EXPECT_TRUE(timedOut);
  const NetworkStats& ns = network_->stats();
  EXPECT_EQ(ns.sent, 1u);
  EXPECT_EQ(ns.delivered, 1u);
  EXPECT_EQ(ns.acksSent, 1u);
  EXPECT_EQ(ns.bytesSent, Network::kDefaultMessageBytes + Network::kAckBytes);
  EXPECT_EQ(ns.ackTimeouts, 1u);
  EXPECT_EQ(ns.injectedDrops, 1u);
  EXPECT_EQ(injector.stats().injectedDrops, 1u);
  const auto& wireSeq = std::get<0>(injector.persistedState());
  EXPECT_EQ(wireSeq[static_cast<std::size_t>(fault::WireKind::kAckRequest)],
            0u);
  EXPECT_EQ(wireSeq[static_cast<std::size_t>(fault::WireKind::kAck)], 1u);
}

/// One request/ack exchange whose request and ack legs are all
/// duplicated and delayed: two request copies, each acked twice.
struct AckedRun {
  std::vector<sim::SimTime> requestAt;
  bool timedOut = false;
  NetworkStats stats;
  fault::FaultStats faults;
};

AckedRun runDuplicatedExchange(sim::SimDuration timeout) {
  sim::Simulator sim;
  Network network(
      sim, [](NodeIndex) { return true; },
      std::make_unique<ConstantLatency>(sim::SimDuration::micros(kLatUs)),
      sim::Rng(1));
  fault::FaultInjector injector(wirePlan(0.0, 1.0, 1.0));
  network.setFaultInjector(&injector);
  AckedRun run;
  network.sendWithAck(
      0, 1,
      [&](sim::SimTime t) {
        run.requestAt.push_back(t);
        return true;
      },
      [&] { run.timedOut = true; }, timeout);
  sim.runAll();
  run.stats = network.stats();
  run.faults = injector.stats();
  return run;
}

TEST(NetworkFaultTest, DuplicatedRequestAndAcksLandAtExactInstants) {
  fault::FaultInjector twin(wirePlan(0.0, 1.0, 1.0));
  const fault::WireVerdict req =
      twin.onWire(fault::WireKind::kAckRequest, 0, 1, 0);
  ASSERT_TRUE(req.duplicate);
  // The copy is scheduled first, at the bare latency plus its offset; the
  // primary carries the extra delay.
  const std::int64_t copyUs = kLatUs + req.duplicateDelayUs;
  const std::int64_t primaryUs = kLatUs + req.extraDelayUs;
  // Each accepted copy consults the ack lane at its delivery instant, in
  // delivery order (the copy wins a tie: it was scheduled first).
  const std::int64_t firstUs = std::min(copyUs, primaryUs);
  const std::int64_t secondUs = std::max(copyUs, primaryUs);
  const fault::WireVerdict ack1 =
      twin.onWire(fault::WireKind::kAck, 1, 0, firstUs);
  const fault::WireVerdict ack2 =
      twin.onWire(fault::WireKind::kAck, 1, 0, secondUs);
  ASSERT_TRUE(ack1.duplicate && ack2.duplicate);
  const std::int64_t ackUs = std::min(
      {firstUs + kLatUs + ack1.duplicateDelayUs,
       firstUs + kLatUs + ack1.extraDelayUs,
       secondUs + kLatUs + ack2.duplicateDelayUs,
       secondUs + kLatUs + ack2.extraDelayUs});

  // A timeout armed exactly at the first ack's instant fires (it was
  // scheduled first and wins the tie); one microsecond later the ack has
  // settled the exchange and the timeout is a no-op.
  const AckedRun tie = runDuplicatedExchange(sim::SimDuration::micros(ackUs));
  EXPECT_TRUE(tie.timedOut);
  const AckedRun settled =
      runDuplicatedExchange(sim::SimDuration::micros(ackUs + 1));
  EXPECT_FALSE(settled.timedOut);

  EXPECT_EQ(settled.requestAt,
            (std::vector<sim::SimTime>{atMicros(firstUs), atMicros(secondUs)}));
  const NetworkStats& ns = settled.stats;
  EXPECT_EQ(ns.sent, 1u);
  EXPECT_EQ(ns.delivered, 2u);
  EXPECT_EQ(ns.acksSent, 2u);
  EXPECT_EQ(ns.bytesSent,
            Network::kDefaultMessageBytes + 2 * Network::kAckBytes);
  EXPECT_EQ(ns.duplicated, 3u);  // the request and both acks
  EXPECT_EQ(ns.injectedDrops, 0u);
  EXPECT_EQ(ns.ackTimeouts, 0u);
  EXPECT_EQ(settled.faults.duplicated, 3u);
  EXPECT_EQ(settled.faults.delayed, 3u);
  EXPECT_EQ(settled.faults.injectedDrops, 0u);
  EXPECT_EQ(tie.stats.ackTimeouts, 1u);
}

TEST(LatencyTest, UniformStaysInRange) {
  UniformLatency lat(sim::SimDuration::millis(20), sim::SimDuration::millis(80));
  sim::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto d = lat.sample(rng);
    ASSERT_GE(d, sim::SimDuration::millis(20));
    ASSERT_LE(d, sim::SimDuration::millis(80));
  }
}

TEST(LatencyTest, UniformDegenerateRange) {
  UniformLatency lat(sim::SimDuration::millis(5), sim::SimDuration::millis(5));
  sim::Rng rng(3);
  EXPECT_EQ(lat.sample(rng), sim::SimDuration::millis(5));
}

TEST(LatencyTest, RejectsBadRanges) {
  EXPECT_THROW(UniformLatency(sim::SimDuration::millis(10),
                              sim::SimDuration::millis(5)),
               std::invalid_argument);
  EXPECT_THROW(ConstantLatency(sim::SimDuration::millis(-1)),
               std::invalid_argument);
}

TEST(LatencyTest, PaperDefaultIs20To80Ms) {
  auto lat = paperDefaultLatency();
  sim::Rng rng(4);
  sim::SimDuration lo = sim::SimDuration::hours(1);
  sim::SimDuration hi = sim::SimDuration::zero();
  for (int i = 0; i < 5000; ++i) {
    const auto d = lat->sample(rng);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_GE(lo, sim::SimDuration::millis(20));
  EXPECT_LE(hi, sim::SimDuration::millis(80));
  // The distribution actually spans the range.
  EXPECT_LT(lo, sim::SimDuration::millis(25));
  EXPECT_GT(hi, sim::SimDuration::millis(75));
}

}  // namespace
}  // namespace avmem::net
