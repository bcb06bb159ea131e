// The sharded maintenance timing wheel: per-member cadence with O(shards)
// queue pressure.
#include "sim/sharded_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

namespace avmem::sim {
namespace {

// A serial per-member body on the barrier dispatch: the null pool runs the
// (empty) plans inline and the commit callback does the work, one member
// at a time in slot order.
void startSerial(ShardedScheduler& sched, Simulator& sim, SimDuration period,
                 std::size_t shardCount, std::size_t memberCount, Rng jitter,
                 std::function<void(std::uint32_t)> fn) {
  sched.start(
      sim, period,
      ShardedScheduler::assignSlots(memberCount, shardCount, period, jitter),
      nullptr,
      [](std::uint32_t, std::size_t) {},
      [fn = std::move(fn)](std::uint32_t m, std::size_t) { fn(m); },
      /*arm=*/true);
}

TEST(ShardedSchedulerTest, EachMemberFiresOncePerPeriod) {
  Simulator sim;
  ShardedScheduler sched;
  constexpr std::size_t kMembers = 10;
  std::vector<int> fired(kMembers, 0);
  startSerial(sched, sim, SimDuration::seconds(1), 4, kMembers, Rng(7),
              [&fired](std::uint32_t m) { ++fired[m]; });
  // Offsets lie in [0, period), so over [0, 5s) every member fires
  // exactly five times.
  sim.runUntil(SimTime::seconds(5) - SimDuration::micros(1));
  for (std::size_t m = 0; m < kMembers; ++m) {
    EXPECT_EQ(fired[m], 5) << "member " << m;
  }
}

TEST(ShardedSchedulerTest, QueuePressureIsShardsNotMembers) {
  Simulator sim;
  ShardedScheduler sched;
  startSerial(sched, sim, SimDuration::minutes(1), 16, 10'000, Rng(3),
              [](std::uint32_t) {});
  EXPECT_LE(sched.activeShardCount(), 16u);
  // One pending heap entry per populated slot — not per member.
  EXPECT_EQ(sim.pendingEvents(), sched.activeShardCount());
}

TEST(ShardedSchedulerTest, AutoShardCountIsPerMemberUpToCap) {
  EXPECT_EQ(ShardedScheduler::autoShardCount(1), 1u);
  EXPECT_EQ(ShardedScheduler::autoShardCount(10), 10u);
  EXPECT_EQ(ShardedScheduler::autoShardCount(256), 256u);
  EXPECT_EQ(ShardedScheduler::autoShardCount(1'000'000),
            ShardedScheduler::kMaxAutoShards);
}

TEST(ShardedSchedulerTest, ShardCountClampsToMembers) {
  // An explicit shardCount above the member count is clamped to
  // memberCount (extra slots could only sit empty); shardCount() reports
  // the effective post-clamp value, so queue-pressure accounting built on
  // it stays honest.
  Simulator sim;
  ShardedScheduler sched;
  startSerial(sched, sim, SimDuration::seconds(1), 64, 8, Rng(5),
              [](std::uint32_t) {});
  EXPECT_EQ(sched.shardCount(), 8u);
  EXPECT_LE(sched.activeShardCount(), sched.shardCount());
  EXPECT_EQ(sched.memberCount(), 8u);

  // At or below the member count the explicit request is honored exactly.
  startSerial(sched, sim, SimDuration::seconds(1), 8, 8, Rng(5),
              [](std::uint32_t) {});
  EXPECT_EQ(sched.shardCount(), 8u);
  startSerial(sched, sim, SimDuration::seconds(1), 3, 8, Rng(5),
              [](std::uint32_t) {});
  EXPECT_EQ(sched.shardCount(), 3u);
}

TEST(ShardedSchedulerTest, DeterministicFiringSequence) {
  auto record = [] {
    Simulator sim;
    ShardedScheduler sched;
    std::vector<std::pair<std::int64_t, std::uint32_t>> seq;
    startSerial(sched, sim, SimDuration::seconds(2), 0, 50, Rng(42),
                [&seq, &sim](std::uint32_t m) {
                  seq.emplace_back(sim.now().toMicros(), m);
                });
    sim.runUntil(SimTime::seconds(10));
    return seq;
  };
  EXPECT_EQ(record(), record());
}

TEST(ShardedSchedulerTest, StopCancelsAllTimers) {
  Simulator sim;
  ShardedScheduler sched;
  int fired = 0;
  startSerial(sched, sim, SimDuration::seconds(1), 4, 20, Rng(9),
              [&fired](std::uint32_t) { ++fired; });
  sim.runUntil(SimTime::seconds(3));
  const int before = fired;
  EXPECT_GT(before, 0);
  sched.stop();
  EXPECT_FALSE(sched.running());
  sim.runUntil(SimTime::seconds(10));
  EXPECT_EQ(fired, before);
}

// Record the full (time, phase, member, lane) sequence of a barrier-mode
// schedule driven by a pool of `threads` lanes. Plans write to a
// lane-indexed buffer (the plan-phase contract); commits append to the
// shared sequence serially.
std::vector<std::tuple<std::int64_t, char, std::uint32_t, std::size_t>>
recordParallel(std::size_t threads) {
  Simulator sim;
  WorkerPool pool(threads);
  ShardedScheduler sched;
  std::vector<std::uint64_t> lanes(64, 0);
  std::vector<std::tuple<std::int64_t, char, std::uint32_t, std::size_t>> seq;
  sched.start(
      sim, SimDuration::seconds(2),
      ShardedScheduler::assignSlots(40, 6, SimDuration::seconds(2), Rng(11)),
      &pool,
      [&lanes](std::uint32_t m, std::size_t lane) {
        lanes[lane] = Rng::stream(5, m, 0).next();  // plan: lane-local only
      },
      [&](std::uint32_t m, std::size_t lane) {
        seq.emplace_back(sim.now().toMicros(), 'c', m, lane);
        ASSERT_EQ(lanes[lane], Rng::stream(5, m, 0).next());
      },
      /*arm=*/true);
  sim.runUntil(SimTime::seconds(10));
  return seq;
}

TEST(ShardedSchedulerTest, BarrierModeMatchesAnyThreadCount) {
  const auto serial = recordParallel(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(recordParallel(2), serial);
  EXPECT_EQ(recordParallel(8), serial);
}

TEST(ShardedSchedulerTest, BarrierModeFiringScheduleMatchesInlineDispatch) {
  // Same period/shards/jitter: the slot assignment and firing times are
  // identical whether the slot runs inline (null pool) or across a pool.
  auto recordSerial = [] {
    Simulator sim;
    ShardedScheduler sched;
    std::vector<std::pair<std::int64_t, std::uint32_t>> seq;
    startSerial(sched, sim, SimDuration::seconds(2), 6, 40, Rng(11),
                [&seq, &sim](std::uint32_t m) {
                  seq.emplace_back(sim.now().toMicros(), m);
                });
    sim.runUntil(SimTime::seconds(10));
    return seq;
  };
  const auto serial = recordSerial();
  const auto parallel = recordParallel(4);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(std::get<0>(parallel[i]), serial[i].first);
    EXPECT_EQ(std::get<2>(parallel[i]), serial[i].second);
  }
}

TEST(ShardedSchedulerTest, MaxSlotPopulationBoundsLaneBuffers) {
  Simulator sim;
  ShardedScheduler sched;
  std::size_t maxLane = 0;
  sched.start(
      sim, SimDuration::seconds(1),
      ShardedScheduler::assignSlots(100, 4, SimDuration::seconds(1), Rng(3)),
      nullptr,
      [](std::uint32_t, std::size_t) {},
      [&maxLane](std::uint32_t, std::size_t lane) {
        maxLane = std::max(maxLane, lane);
      },
      /*arm=*/true);
  EXPECT_GE(sched.maxSlotPopulation(), 1u);
  sim.runUntil(SimTime::seconds(1));
  EXPECT_LT(maxLane, sched.maxSlotPopulation());
}

TEST(ShardedSchedulerTest, EmptyPopulationSchedulesNothing) {
  Simulator sim;
  ShardedScheduler sched;
  startSerial(sched, sim, SimDuration::seconds(1), 4, 0, Rng(1),
              [](std::uint32_t) { FAIL() << "no member should fire"; });
  EXPECT_FALSE(sched.running());
  EXPECT_EQ(sim.pendingEvents(), 0u);
  sim.runUntil(SimTime::seconds(5));
}

}  // namespace
}  // namespace avmem::sim
