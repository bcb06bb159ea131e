// The maintenance worker pool: every task exactly once, barrier semantics,
// reuse across batches, and exception propagation.
#include "sim/worker_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
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
