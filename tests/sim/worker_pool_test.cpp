// The maintenance worker pool: every task exactly once, barrier semantics,
// reuse across batches, and exception propagation — on both wait paths
// (workers spinning between back-to-back batches, and parked after an
// idle gap longer than the spin bound).
#include "sim/worker_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/random.hpp"

namespace avmem::sim {
namespace {

TEST(WorkerPoolTest, RunsEveryTaskExactlyOnce) {
  WorkerPool pool(4);
  constexpr std::size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run(kTasks, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(WorkerPoolTest, RunIsABarrier) {
  // Per-task results written with no synchronization must all be visible
  // to the caller after run() returns.
  WorkerPool pool(4);
  constexpr std::size_t kTasks = 513;
  std::vector<std::uint64_t> out(kTasks, 0);
  pool.run(kTasks, [&out](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(out[i], i * i);
  }
}

TEST(WorkerPoolTest, ReusableAcrossBatches) {
  WorkerPool pool(3);
  std::atomic<std::uint64_t> sum{0};
  for (int batch = 0; batch < 50; ++batch) {
    pool.run(100, [&sum](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 50u * (99u * 100u / 2u));
}

TEST(WorkerPoolTest, SingleThreadRunsInline) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.threadCount(), 1u);
  std::vector<std::size_t> order;
  pool.run(5, [&order](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(WorkerPoolTest, HandlesFewerTasksThanThreads) {
  WorkerPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.run(3, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPoolTest, EmptyBatchIsANoOp) {
  WorkerPool pool(4);
  pool.run(0, [](std::size_t) { FAIL() << "no task should run"; });
}

TEST(WorkerPoolTest, ZeroThreadsClampsToOne) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.threadCount(), 1u);
  int ran = 0;
  pool.run(4, [&ran](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 4);
}

TEST(WorkerPoolTest, PropagatesTaskException) {
  WorkerPool pool(4);
  EXPECT_THROW(pool.run(100,
                        [](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The pool survives the failed batch.
  std::atomic<int> ran{0};
  pool.run(10, [&ran](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 10);
}

TEST(WorkerPoolTest, ExceptionAbandonsTheRestAndRunsNothingTwice) {
  // Chunked claims (4 lanes, 10k tasks): the throwing lane closes the
  // claim word; chunks other lanes already hold still finish. No task may
  // run twice, and the join must still see the whole batch retired.
  WorkerPool pool(4);
  constexpr std::size_t kTasks = 10'000;
  for (std::size_t round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> hits(kTasks);
    const std::size_t thrower = round * 487 % kTasks;
    EXPECT_THROW(pool.run(kTasks,
                          [&hits, thrower](std::size_t i) {
                            hits[i].fetch_add(1, std::memory_order_relaxed);
                            if (i == thrower) throw std::runtime_error("x");
                          }),
                 std::runtime_error);
    for (std::size_t i = 0; i < kTasks; ++i) {
      ASSERT_LE(hits[i].load(), 1) << "round " << round << " task " << i;
    }
    EXPECT_EQ(hits[thrower].load(), 1);
  }
}

TEST(WorkerPoolTest, ResultsIndependentOfThreadCount) {
  // The plan-phase contract in miniature: each task derives its own
  // counter-based stream and writes only its own slot, so any thread
  // count produces identical output.
  constexpr std::size_t kTasks = 200;
  auto compute = [](std::size_t threads) {
    WorkerPool pool(threads);
    std::vector<std::uint64_t> out(kTasks, 0);
    pool.run(kTasks, [&out](std::size_t i) {
      out[i] = Rng::stream(99, i, 7).next();
    });
    return out;
  };
  const auto serial = compute(1);
  EXPECT_EQ(compute(2), serial);
  EXPECT_EQ(compute(8), serial);
}

/// Lanes that fit the host's hardware threads, so the pool spins between
/// batches (at least 2, so there is a worker to hand off to).
std::size_t spinningLanes() {
  return std::max<std::size_t>(
      2, std::min<std::size_t>(4, WorkerPool::defaultThreadCount()));
}

/// Longer than the pool's spin bound, so waiting workers park.
constexpr auto kIdleGap = std::chrono::milliseconds(5);

/// Runs one batch of `n` tasks (n <= 16) that write plain, unsynchronized
/// slots, and checks after run() returns that each task ran exactly once
/// and that its writes are visible. A task run twice on two lanes is a
/// data race the thread sanitizer reports.
void runCheckedBatch(WorkerPool& pool, std::uint64_t batch, std::size_t n) {
  std::uint64_t out[16] = {};
  int hits[16] = {};
  pool.run(n, [&out, &hits, batch](std::size_t i) {
    out[i] = batch * 16 + i;
    ++hits[i];
  });
  for (std::size_t i = 0; i < 16; ++i) {
    ASSERT_EQ(hits[i], i < n ? 1 : 0) << "batch " << batch << " task " << i;
    ASSERT_EQ(out[i], i < n ? batch * 16 + i : 0)
        << "batch " << batch << " task " << i;
  }
}

TEST(WorkerPoolTest, BackToBackSmallBatchesSpinPath) {
  // The plan phase's shape: many small batches with no gap, so workers
  // are still spinning when the next one is published.
  WorkerPool pool(spinningLanes());
  constexpr std::uint64_t kBatches = 100'000;
  for (std::uint64_t b = 0; b < kBatches; ++b) {
    runCheckedBatch(pool, b, 2 + b % 8);
    if (HasFatalFailure()) return;
  }
}

TEST(WorkerPoolTest, IdleGapsParkAndWake) {
  // Each gap outlasts the spin bound: every batch wakes parked workers,
  // and the caller may park for the join.
  WorkerPool pool(spinningLanes());
  for (std::uint64_t b = 0; b < 20; ++b) {
    std::this_thread::sleep_for(kIdleGap);
    runCheckedBatch(pool, b, 2 + b % 8);
    if (HasFatalFailure()) return;
  }
}

TEST(WorkerPoolTest, ExceptionWhileWorkersHotKeepsPool) {
  WorkerPool pool(spinningLanes());
  for (std::uint64_t round = 0; round < 200; ++round) {
    runCheckedBatch(pool, round, 9);  // workers hot
    if (HasFatalFailure()) return;
    EXPECT_THROW(pool.run(9,
                          [round](std::size_t i) {
                            if (i == round % 9) throw std::runtime_error("x");
                          }),
                 std::runtime_error);
    runCheckedBatch(pool, round, 2 + round % 8);  // the next batch runs
    if (HasFatalFailure()) return;
  }
}

TEST(WorkerPoolTest, DestroysSpinningAndParkedWorkers) {
  for (int i = 0; i < 50; ++i) {
    // Straight after a batch: workers are still spinning.
    auto hot = std::make_unique<WorkerPool>(spinningLanes());
    runCheckedBatch(*hot, 1, 8);
    hot.reset();
  }
  for (int i = 0; i < 5; ++i) {
    // After an idle gap: workers are parked.
    auto idle = std::make_unique<WorkerPool>(spinningLanes());
    runCheckedBatch(*idle, 1, 8);
    std::this_thread::sleep_for(kIdleGap);
    idle.reset();
  }
  for (int i = 0; i < 200; ++i) {
    // Never used, destroyed at once: some workers start only after the
    // destructor asked them to stop.
    WorkerPool unused(spinningLanes());
  }
}

TEST(WorkerPoolTest, OversubscribedPoolParksAndStaysCorrect) {
  // More lanes than hardware threads: the pool never spins, every wait
  // parks at once.
  WorkerPool pool(4 * WorkerPool::defaultThreadCount());
  for (std::uint64_t b = 0; b < 2'000; ++b) {
    runCheckedBatch(pool, b, 2 + b % 15);
    if (HasFatalFailure()) return;
  }
  std::this_thread::sleep_for(kIdleGap);
  runCheckedBatch(pool, 0, 16);
}

TEST(RngStreamTest, PureFunctionOfSeedMemberRound) {
  EXPECT_EQ(Rng::stream(1, 2, 3).next(), Rng::stream(1, 2, 3).next());
  // Distinct on every coordinate.
  const auto base = Rng::stream(1, 2, 3).next();
  EXPECT_NE(Rng::stream(2, 2, 3).next(), base);
  EXPECT_NE(Rng::stream(1, 3, 3).next(), base);
  EXPECT_NE(Rng::stream(1, 2, 4).next(), base);
}

TEST(RngStreamTest, StreamsLookIndependent) {
  // Crude uniformity check over member-adjacent streams.
  double sum = 0.0;
  constexpr int kStreams = 2000;
  for (int m = 0; m < kStreams; ++m) {
    sum += Rng::stream(42, static_cast<std::uint64_t>(m), 0).uniform();
  }
  EXPECT_NEAR(sum / kStreams, 0.5, 0.02);
}

}  // namespace
}  // namespace avmem::sim
