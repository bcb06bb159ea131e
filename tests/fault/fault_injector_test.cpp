// FaultInjector unit tests: the wire-verdict contract that the whole
// determinism story rests on — verdicts are pure functions of
// (plan seed, wire kind, per-kind counter), no RNG is drawn outside an
// active matching stage, drop beats duplicate beats nothing, and the
// saved counter state resumes the exact stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"

namespace avmem::fault {
namespace {

constexpr std::int64_t kHourUs = 3'600'000'000;

FaultPlan lossPlan(double drop, double duplicate, double delay,
                   std::int64_t delayMaxUs = 200'000) {
  FaultPlan p;
  LossStage s;
  s.fromUs = kHourUs;      // [1h, 2h)
  s.toUs = 2 * kHourUs;
  s.drop = drop;
  s.duplicate = duplicate;
  s.delay = delay;
  s.delayMaxUs = delayMaxUs;
  p.loss.push_back(s);
  return p;
}

TEST(FaultInjectorTest, NoActiveStageDrawsNothing) {
  FaultInjector inj(lossPlan(1.0, 1.0, 1.0));
  // Before, after, and exactly at the exclusive end of the window: the
  // verdict is empty AND no counter advances — the null-plan
  // byte-identity guarantee depends on the no-draw half.
  for (const std::int64_t t :
       {std::int64_t{0}, kHourUs - 1, 2 * kHourUs, 3 * kHourUs}) {
    const WireVerdict v = inj.onWire(WireKind::kDatagram, 1, 2, t);
    EXPECT_FALSE(v.drop);
    EXPECT_FALSE(v.duplicate);
    EXPECT_EQ(v.extraDelayUs, 0);
  }
  const auto& wireSeq = std::get<0>(inj.persistedState());
  for (const std::uint64_t seq : wireSeq) EXPECT_EQ(seq, 0u);
  EXPECT_EQ(inj.stats().injectedDrops, 0u);
  EXPECT_EQ(inj.stats().duplicated, 0u);
  EXPECT_EQ(inj.stats().delayed, 0u);
}

TEST(FaultInjectorTest, WindowStartInclusiveEndExclusive) {
  FaultInjector inj(lossPlan(1.0, 0.0, 0.0));
  EXPECT_FALSE(inj.onWire(WireKind::kDatagram, 1, 2, kHourUs - 1).drop);
  EXPECT_TRUE(inj.onWire(WireKind::kDatagram, 1, 2, kHourUs).drop);
  EXPECT_TRUE(inj.onWire(WireKind::kDatagram, 1, 2, 2 * kHourUs - 1).drop);
  EXPECT_FALSE(inj.onWire(WireKind::kDatagram, 1, 2, 2 * kHourUs).drop);
}

TEST(FaultInjectorTest, VerdictSequenceIsDeterministic) {
  FaultInjector a(lossPlan(0.4, 0.3, 0.3));
  FaultInjector b(lossPlan(0.4, 0.3, 0.3));
  for (int i = 0; i < 2000; ++i) {
    const auto kind = static_cast<WireKind>(i % kWireKindCount);
    const WireVerdict va = a.onWire(kind, 7, 9, kHourUs + i);
    const WireVerdict vb = b.onWire(kind, 7, 9, kHourUs + i);
    EXPECT_EQ(va.drop, vb.drop);
    EXPECT_EQ(va.duplicate, vb.duplicate);
    EXPECT_EQ(va.extraDelayUs, vb.extraDelayUs);
    EXPECT_EQ(va.duplicateDelayUs, vb.duplicateDelayUs);
  }
}

TEST(FaultInjectorTest, WireKindsOwnIndependentStreams) {
  // Interleaving consults on one lane must not shift the randomness
  // another lane sees — otherwise adding a shuffle message would change
  // every later anycast verdict.
  FaultInjector pure(lossPlan(0.5, 0.2, 0.2));
  std::vector<WireVerdict> expected;
  for (int i = 0; i < 500; ++i) {
    expected.push_back(pure.onWire(WireKind::kAck, 1, 2, kHourUs + i));
  }
  FaultInjector mixed(lossPlan(0.5, 0.2, 0.2));
  for (int i = 0; i < 500; ++i) {
    (void)mixed.onWire(WireKind::kDatagram, 3, 4, kHourUs + i);
    const WireVerdict v = mixed.onWire(WireKind::kAck, 1, 2, kHourUs + i);
    EXPECT_EQ(v.drop, expected[i].drop);
    EXPECT_EQ(v.duplicate, expected[i].duplicate);
    EXPECT_EQ(v.extraDelayUs, expected[i].extraDelayUs);
  }
}

TEST(FaultInjectorTest, DropWinsOverDuplicateAndDelay) {
  FaultInjector inj(lossPlan(1.0, 1.0, 1.0));
  for (int i = 0; i < 100; ++i) {
    const WireVerdict v = inj.onWire(WireKind::kDatagram, 1, 2, kHourUs);
    EXPECT_TRUE(v.drop);
    EXPECT_FALSE(v.duplicate);
    EXPECT_EQ(v.extraDelayUs, 0);
    EXPECT_EQ(v.duplicateDelayUs, 0);
  }
  EXPECT_EQ(inj.stats().injectedDrops, 100u);
  EXPECT_EQ(inj.stats().duplicated, 0u);
  EXPECT_EQ(inj.stats().delayed, 0u);
}

TEST(FaultInjectorTest, DelaysAndDuplicateOffsetsStayInBounds) {
  FaultInjector inj(lossPlan(0.0, 1.0, 1.0, /*delayMaxUs=*/50'000));
  for (int i = 0; i < 500; ++i) {
    const WireVerdict v = inj.onWire(WireKind::kDatagram, 1, 2, kHourUs);
    EXPECT_TRUE(v.duplicate);
    EXPECT_GE(v.duplicateDelayUs, 1);
    EXPECT_LE(v.duplicateDelayUs, 50'000);
    EXPECT_GE(v.extraDelayUs, 1);
    EXPECT_LE(v.extraDelayUs, 50'000);
  }
  EXPECT_EQ(inj.stats().duplicated, 500u);
  EXPECT_EQ(inj.stats().delayed, 500u);
}

TEST(FaultInjectorTest, InjectedRatesTrackThePlan) {
  FaultInjector inj(lossPlan(0.3, 0.0, 0.0));
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    (void)inj.onWire(WireKind::kDatagram, 1, 2, kHourUs);
  }
  const double rate =
      static_cast<double>(inj.stats().injectedDrops) / n;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(FaultInjectorTest, RegionScopingMatchesAndUnknownSenderIsExempt) {
  FaultPlan p = lossPlan(1.0, 0.0, 0.0);
  p.regions = 4;
  p.loss[0].srcRegion = 2;
  FaultInjector inj(p);

  // Find one node inside region 2 and one outside, under the plan's own
  // hash assignment.
  std::uint32_t inside = 0, outside = 0;
  bool haveIn = false, haveOut = false;
  for (std::uint32_t n = 0; n < 256 && !(haveIn && haveOut); ++n) {
    if (inj.regionOf(n) == 2) {
      inside = n;
      haveIn = true;
    } else {
      outside = n;
      haveOut = true;
    }
  }
  ASSERT_TRUE(haveIn && haveOut);

  EXPECT_TRUE(inj.onWire(WireKind::kDatagram, inside, 9, kHourUs).drop);
  EXPECT_FALSE(inj.onWire(WireKind::kDatagram, outside, 9, kHourUs).drop);
  // Only the matching consult burned a counter.
  EXPECT_EQ(std::get<0>(inj.persistedState())[static_cast<std::size_t>(
                WireKind::kDatagram)],
            1u);
}

TEST(FaultInjectorTest, DstRegionScopeUsesThePlanHashAssignment) {
  FaultPlan p = lossPlan(1.0, 0.0, 0.0);
  p.regions = 4;
  p.loss[0].dstRegion = 1;
  FaultInjector inj(p);
  // Loss scoping and the outage overlay share one region assignment.
  std::uint32_t inside = 0, outside = 0;
  bool haveIn = false, haveOut = false;
  for (std::uint32_t n = 0; n < 256 && !(haveIn && haveOut); ++n) {
    EXPECT_EQ(inj.regionOf(n), hashRegionOf(p.seed, p.regions, n));
    if (inj.regionOf(n) == 1) {
      inside = n;
      haveIn = true;
    } else {
      outside = n;
      haveOut = true;
    }
  }
  ASSERT_TRUE(haveIn && haveOut);
  EXPECT_TRUE(inj.onWire(WireKind::kDatagram, 0, inside, kHourUs).drop);
  EXPECT_FALSE(inj.onWire(WireKind::kDatagram, 0, outside, kHourUs).drop);
}

TEST(FaultInjectorTest, FirstMatchingLossStageWins) {
  FaultPlan p = lossPlan(1.0, 0.0, 0.0);  // [1h, 2h) drop-everything
  LossStage gentle;                        // overlapping [1h, 3h) no-drop
  gentle.fromUs = kHourUs;
  gentle.toUs = 3 * kHourUs;
  gentle.duplicate = 1.0;
  p.loss.push_back(gentle);
  FaultInjector inj(p);
  EXPECT_TRUE(inj.onWire(WireKind::kDatagram, 1, 2, kHourUs).drop);
  // Past the first stage's window only the second matches.
  const WireVerdict v =
      inj.onWire(WireKind::kDatagram, 1, 2, 2 * kHourUs + 1);
  EXPECT_FALSE(v.drop);
  EXPECT_TRUE(v.duplicate);
}

TEST(FaultInjectorTest, SaveRestoreResumesTheExactStream) {
  FaultInjector donor(lossPlan(0.4, 0.3, 0.3));
  for (int i = 0; i < 777; ++i) {
    (void)donor.onWire(WireKind::kAckRequest, 1, 2, kHourUs);
  }
  FaultInjector restored(lossPlan(0.4, 0.3, 0.3));
  restored.persistedState() = std::as_const(donor).persistedState();
  EXPECT_EQ(restored.stats().injectedDrops, donor.stats().injectedDrops);
  for (int i = 0; i < 500; ++i) {
    const WireVerdict a =
        donor.onWire(WireKind::kAckRequest, 1, 2, kHourUs + i);
    const WireVerdict b =
        restored.onWire(WireKind::kAckRequest, 1, 2, kHourUs + i);
    EXPECT_EQ(a.drop, b.drop);
    EXPECT_EQ(a.duplicate, b.duplicate);
    EXPECT_EQ(a.extraDelayUs, b.extraDelayUs);
  }
}

TEST(FaultInjectorTest, AttackSweepCountersAndRngAreDeterministic) {
  FaultPlan p;
  p.attacks.push_back({kHourUs, 2 * kHourUs, 60'000'000, true});
  p.attacks.push_back({kHourUs, 3 * kHourUs, 30'000'000, false});
  FaultInjector inj(p);
  EXPECT_EQ(inj.attackStageCount(), 2u);
  EXPECT_EQ(inj.nextAttackSweep(0), 0u);
  EXPECT_EQ(inj.nextAttackSweep(0), 1u);
  EXPECT_EQ(inj.nextAttackSweep(1), 0u);
  EXPECT_EQ(inj.attackSweepsDone(0), 2u);
  EXPECT_EQ(inj.attackSweepsDone(1), 1u);

  // Same (stage, sweep) -> same attacker stream; different stage or
  // sweep -> different stream.
  sim::Rng a = inj.attackerRng(0, 5);
  sim::Rng b = inj.attackerRng(0, 5);
  EXPECT_EQ(a.next(), b.next());
  sim::Rng c = inj.attackerRng(1, 5);
  sim::Rng d = inj.attackerRng(0, 6);
  sim::Rng e = inj.attackerRng(0, 5);
  const std::uint64_t base = e.next();
  EXPECT_NE(c.next(), base);
  EXPECT_NE(d.next(), base);

  inj.recordSweep(10, 4);
  inj.recordSweep(6, 1);
  EXPECT_EQ(inj.stats().attackSweeps, 2u);
  EXPECT_EQ(inj.stats().attackTargets, 16u);
  EXPECT_EQ(inj.stats().attackAccepted, 5u);
}

}  // namespace
}  // namespace avmem::fault
