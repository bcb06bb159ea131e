// AvmonAvailabilityService::query answers from one table per (epoch, fold
// cursor). Every answer must equal, bit for bit, the per-monitor walk it
// replaced: pool the counters of the target's monitors that are online
// now, plus the querier's own counters when it monitors the target.
// The reference below recomputes that walk from the public API only.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "avmon/avmon_monitors.hpp"
#include "sim/worker_pool.hpp"
#include "trace/overnet_generator.hpp"

namespace avmem::avmon {
namespace {

using net::NodeIndex;

constexpr std::size_t kHosts = 300;

/// The per-monitor walk, from monitorsOf, monitorCounters and the trace.
std::optional<double> walkReference(const AvmonSystem& system,
                                    const trace::AvailabilityModel& trace,
                                    sim::SimTime now, NodeIndex querier,
                                    NodeIndex target) {
  double up = 0.0;
  double samples = 0.0;
  for (const NodeIndex m : system.monitorsOf(target)) {
    if (m != querier && !trace.onlineAt(m, now)) continue;
    const AvmonSystem::EstimateCell c = system.monitorCounters(m, target);
    if (c.samples == 0) continue;
    up += c.up;
    samples += c.samples;
  }
  if (samples == 0.0) return std::nullopt;
  return up / samples;
}

/// Two answers are the same when both are empty or both hold the same
/// bits.
bool sameBits(const std::optional<double>& a, const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || std::bit_cast<std::uint64_t>(*a) ==
                   std::bit_cast<std::uint64_t>(*b);
}

class AvmonQueryTableTest : public ::testing::Test {
 protected:
  AvmonQueryTableTest() {
    trace::OvernetTraceConfig cfg;
    cfg.hosts = kHosts;
    cfg.epochs = 300;
    trace_ = std::make_unique<trace::ChurnTrace>(
        trace::generateOvernetTrace(cfg));
    ids_ = core::makeNodeIds(kHosts, 5);
    acfg_.expectedMonitorsPerTarget = 8.0;
    system_ = std::make_unique<AvmonSystem>(*trace_, sim_, ids_, acfg_);
    system_->start();
  }

  void materializeAll(const AvmonSystem& system) const {
    for (NodeIndex t = 0; t < kHosts; ++t) (void)system.monitorsOf(t);
  }

  /// Queriers probed for `target`: every monitor (online or not) and two
  /// bystanders.
  std::vector<NodeIndex> queriersOf(const AvmonSystem& system,
                                    NodeIndex target) const {
    std::vector<NodeIndex> out = system.monitorsOf(target);
    out.push_back((target + 1) % kHosts);
    out.push_back((target + 150) % kHosts);
    return out;
  }

  /// Every probed (querier, target) answer of `system` equals the walk.
  /// Returns how many probes were an offline querier monitoring its
  /// target.
  std::size_t expectMatchesWalk(const AvmonSystem& system,
                                const std::string& label) const {
    const AvmonAvailabilityService svc(system);
    std::size_t offlineMonitorProbes = 0;
    for (NodeIndex t = 0; t < kHosts; ++t) {
      for (const NodeIndex q : queriersOf(system, t)) {
        const auto got = svc.query(q, t);
        const auto want = walkReference(system, *trace_, sim_.now(), q, t);
        EXPECT_TRUE(sameBits(got, want))
            << label << ": querier " << q << " target " << t;
        if (system.isMonitor(q, t) && !trace_->onlineAt(q, sim_.now())) {
          ++offlineMonitorProbes;
        }
      }
    }
    return offlineMonitorProbes;
  }

  /// Deep copy of `system`'s materialized cells, as a checkpoint stages
  /// them: counters only, monitor lists left for restoreStage.
  static AvmonSystem::Cells copyCells(const AvmonSystem& system) {
    const auto& [pings, cells] = system.persistedState();
    (void)pings;
    AvmonSystem::Cells out(cells.size());
    for (std::size_t t = 0; t < cells.size(); ++t) {
      if (cells[t] != nullptr) {
        out[t] = std::make_unique<AvmonSystem::TargetCell>(*cells[t]);
        out[t]->monitors.clear();
      }
    }
    return out;
  }

  sim::Simulator sim_;
  std::unique_ptr<trace::ChurnTrace> trace_;
  std::vector<core::NodeId> ids_;
  AvmonConfig acfg_;
  std::unique_ptr<AvmonSystem> system_;
};

TEST_F(AvmonQueryTableTest, MatchesWalkIncludingOfflineMonitorQueriers) {
  materializeAll(*system_);
  for (const std::int64_t minutes : {0, 130, 2887, 2893, 4000}) {
    sim_.runUntil(sim::SimTime::minutes(minutes));
    const std::size_t offline = expectMatchesWalk(
        *system_, "minute " + std::to_string(minutes));
    EXPECT_GT(offline, 0u) << "no offline monitor probed at " << minutes;
  }
}

TEST_F(AvmonQueryTableTest, FoldBoundaryInstantBeforeAndAfterTheFold) {
  // The fold for boundary B is scheduled one epoch ahead of B, so an event
  // scheduled now for B runs before it (old counters, new epoch) and one
  // scheduled after the previous boundary runs after it.
  materializeAll(*system_);
  const sim::SimTime boundary = trace_->epochStart(90);
  std::uint64_t foldedBefore = 0;
  std::uint64_t foldedAfter = 0;
  std::vector<std::optional<double>> before;
  std::vector<std::optional<double>> after;
  const auto snapshot = [&](std::vector<std::optional<double>>& out) {
    const AvmonAvailabilityService svc(*system_);
    for (NodeIndex t = 0; t < kHosts; ++t) {
      out.push_back(svc.query((t + 1) % kHosts, t));
    }
  };
  sim_.scheduleAt(boundary, [&] {
    foldedBefore = system_->advancedEpochs();
    expectMatchesWalk(*system_, "boundary, before the fold");
    snapshot(before);
  });
  sim_.runUntil(trace_->epochStart(89) + sim::SimDuration::minutes(1));
  sim_.scheduleAt(boundary, [&] {
    foldedAfter = system_->advancedEpochs();
    expectMatchesWalk(*system_, "boundary, after the fold");
    snapshot(after);
  });
  sim_.runUntil(boundary);
  EXPECT_EQ(foldedBefore, 89u);
  EXPECT_EQ(foldedAfter, 90u);
  // The fold moved some answer, so the two instants read different keys.
  std::size_t moved = 0;
  for (std::size_t t = 0; t < kHosts; ++t) {
    if (!sameBits(before[t], after[t])) ++moved;
  }
  EXPECT_GT(moved, 0u);
}

TEST_F(AvmonQueryTableTest, TargetMaterializedAfterTheRebuild) {
  // Half the targets exist when the first query builds the table; the
  // rest materialize afterwards and are answered by the walk until the
  // next key covers them.
  for (NodeIndex t = 0; t < kHosts / 2; ++t) (void)system_->monitorsOf(t);
  sim_.runUntil(sim::SimTime::days(2) + sim::SimDuration::minutes(7));
  const AvmonAvailabilityService svc(*system_);
  (void)svc.query(0, 1);  // builds the table for this key
  ASSERT_EQ(system_->materializedTargets(), kHosts / 2);
  expectMatchesWalk(*system_, "late targets, same key");
  ASSERT_EQ(system_->materializedTargets(), kHosts);
  sim_.runUntil(sim::SimTime::days(2) + sim::SimDuration::minutes(27));
  expectMatchesWalk(*system_, "late targets, next key");
}

TEST_F(AvmonQueryTableTest, RestoredSystemAnswersFromTheRestoredCells) {
  materializeAll(*system_);
  sim_.runUntil(sim::SimTime::days(2) + sim::SimDuration::minutes(7));
  const auto& [pings, cells] = system_->persistedState();
  (void)cells;

  // A realistic restore: the source's fold cursor and cells.
  {
    AvmonSystem restored(*trace_, sim_, ids_, acfg_);
    AvmonSystem::Cells staged = copyCells(*system_);
    restored.restoreStage(staged);
    restored.restoreInstall(system_->advancedEpochs(), pings,
                            std::move(staged));
    expectMatchesWalk(restored, "restored");
  }
  // A table built before the install under the very key the install
  // leaves (fold cursor 0, this epoch) must not outlive it.
  {
    AvmonSystem restored(*trace_, sim_, ids_, acfg_);
    materializeAll(restored);  // counters all zero: no folded epoch
    const AvmonAvailabilityService svc(restored);
    ASSERT_FALSE(svc.query(1, 0).has_value());
    AvmonSystem::Cells staged = copyCells(*system_);
    restored.restoreStage(staged);
    restored.restoreInstall(0, pings, std::move(staged));
    expectMatchesWalk(restored, "restored under the same key");
    EXPECT_TRUE(svc.query(1, 0).has_value());
  }
}

TEST_F(AvmonQueryTableTest, ConcurrentFirstReadMatchesSerialAnswers) {
  // The first query under each new key rebuilds the table while other
  // readers wait on it and lazy materialization runs under them. Even
  // instants read from pool lanes, as the plan phase does; odd instants
  // from free threads released by one flag, so ThreadSanitizer (in CI)
  // sees a table published without acquire/release (pool lanes already
  // order a late reader after the rebuilding lane).
  constexpr std::size_t kReaders = 8;
  for (NodeIndex t = 0; t < kHosts; t += 3) (void)system_->monitorsOf(t);
  sim::WorkerPool pool(4);
  const AvmonAvailabilityService svc(*system_);
  const std::int64_t minutes[] = {50, 61, 300, 330, 2000, 2020, 2500, 2510};
  for (std::size_t k = 0; k < std::size(minutes); ++k) {
    sim_.runUntil(sim::SimTime::minutes(minutes[k]));
    std::vector<std::vector<std::optional<double>>> answers(
        kReaders, std::vector<std::optional<double>>(kHosts));
    const auto readAll = [&](std::size_t reader) {
      for (std::size_t i = 0; i < kHosts; ++i) {
        const auto t = static_cast<NodeIndex>((i + reader * 37) % kHosts);
        answers[reader][t] = svc.query((t + reader) % kHosts, t);
      }
    };
    if (k % 2 == 0) {
      pool.run(kReaders, readAll);
    } else {
      std::atomic<bool> go{false};
      std::vector<std::thread> threads;
      for (std::size_t reader = 0; reader < kReaders; ++reader) {
        threads.emplace_back([&go, &readAll, reader] {
          while (!go.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          readAll(reader);
        });
      }
      go.store(true, std::memory_order_release);
      for (auto& th : threads) th.join();
    }
    for (std::size_t reader = 0; reader < kReaders; ++reader) {
      for (NodeIndex t = 0; t < kHosts; ++t) {
        const auto want = walkReference(*system_, *trace_, sim_.now(),
                                        (t + reader) % kHosts, t);
        ASSERT_TRUE(sameBits(answers[reader][t], want))
            << "reader " << reader << " target " << t << " at minute "
            << minutes[k];
      }
    }
  }
}

}  // namespace
}  // namespace avmem::avmon
