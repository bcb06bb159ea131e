// A fixed-size worker pool for the deterministic parallel plan phase of
// maintenance dispatch.
//
// The discrete-event loop stays single-threaded: simulated time never
// advances while workers run. A slot firing hands the pool an indexed
// batch of independent read-only tasks (ShardedScheduler barrier mode),
// run() fans them out across the workers plus the calling thread, and
// returns only when every task has finished — a barrier per slot. Because
// the tasks are pure with respect to shared state (that is the plan-phase
// contract; see docs/ARCHITECTURE.md "Parallel dispatch"), the worker
// interleaving cannot affect results, and the serial commit phase that
// follows observes exactly the same plans whatever the thread count.
//
// Scheduling is chunked work-claiming off one atomic counter: workers grab
// small contiguous index ranges until the batch is exhausted, so uneven
// per-task cost (some nodes scan fuller views than others) load-balances
// without any per-task synchronization. The pool keeps its threads across
// run() calls — slots fire thousands of times per simulated hour and
// thread start-up would dominate otherwise.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace avmem::sim {

/// Reusable fan-out/join executor over indexed task batches.
class WorkerPool {
 public:
  /// One task: `fn(i)` for a task index in [0, taskCount).
  using TaskFn = std::function<void(std::size_t)>;

  /// std::thread::hardware_concurrency(), clamped to at least 1 (the
  /// standard allows it to report 0 when unknown).
  [[nodiscard]] static std::size_t defaultThreadCount() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
  }

  /// A pool of `threads` execution lanes total, including the calling
  /// thread: `threads - 1` workers are spawned. `threads <= 1` spawns
  /// nothing and run() degrades to an inline serial loop.
  explicit WorkerPool(std::size_t threads)
      : threadCount_(threads == 0 ? 1 : threads) {
    workers_.reserve(threadCount_ - 1);
    for (std::size_t w = 0; w + 1 < threadCount_; ++w) {
      workers_.emplace_back([this] { workerMain(); });
    }
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& t : workers_) t.join();
  }

  /// Execution lanes run() uses, including the calling thread.
  [[nodiscard]] std::size_t threadCount() const noexcept {
    return threadCount_;
  }

  /// Run fn(0) .. fn(taskCount - 1), each exactly once, across the pool;
  /// returns after every task has completed (the barrier). The first
  /// exception a task throws is rethrown here after the join; remaining
  /// tasks are abandoned. Not reentrant: run() must not be called from
  /// inside a task.
  void run(std::size_t taskCount, const TaskFn& fn) {
    if (taskCount == 0) return;
    if (workers_.empty() || taskCount == 1) {
      for (std::size_t i = 0; i < taskCount; ++i) fn(i);
      return;
    }

    {
      std::lock_guard<std::mutex> lock(mutex_);
      fn_ = &fn;
      taskCount_ = taskCount;
      next_.store(0, std::memory_order_relaxed);
      // Claim at most ~8 chunks per lane: big enough to amortize the
      // atomic, small enough to balance uneven task costs.
      chunk_ = taskCount / (threadCount_ * 8);
      if (chunk_ == 0) chunk_ = 1;
      busyWorkers_ = workers_.size();
      firstError_ = nullptr;
      ++generation_;
    }
    wake_.notify_all();

    drainTasks();  // the calling thread is a lane too

    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return busyWorkers_ == 0; });
    fn_ = nullptr;
    if (firstError_) std::rethrow_exception(firstError_);
  }

 private:
  void workerMain() {
    std::uint64_t seen = 0;
    for (;;) {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this, seen] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      lock.unlock();

      drainTasks();

      lock.lock();
      if (--busyWorkers_ == 0) {
        lock.unlock();
        done_.notify_one();
      }
    }
  }

  /// Claim and run index chunks until the batch is exhausted.
  void drainTasks() {
    const TaskFn& fn = *fn_;
    const std::size_t count = taskCount_;
    const std::size_t chunk = chunk_;
    for (;;) {
      const std::size_t begin =
          next_.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count) return;
      const std::size_t end = std::min(begin + chunk, count);
      for (std::size_t i = begin; i < end; ++i) {
        try {
          fn(i);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!firstError_) firstError_ = std::current_exception();
            // Abandon the rest of the batch: drain the counter so every
            // lane's next claim misses.
            next_.store(count, std::memory_order_relaxed);
          }
          return;
        }
      }
    }
  }

  const std::size_t threadCount_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::uint64_t generation_ = 0;
  std::size_t busyWorkers_ = 0;
  bool stop_ = false;
  std::exception_ptr firstError_;

  // Batch state for the current run(); written under mutex_ before the
  // generation bump publishes it, read by workers after they observe the
  // bump (the mutex orders both).
  const TaskFn* fn_ = nullptr;
  std::size_t taskCount_ = 0;
  std::size_t chunk_ = 1;
  std::atomic<std::size_t> next_{0};
};

}  // namespace avmem::sim
