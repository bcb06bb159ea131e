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
//
// Handoff is spin-then-park, because batches are small and arrive back to
// back (a busy world makes tens of thousands of run() calls per wall
// second, most of 4–15 tasks). run() publishes a batch by storing a new
// generation into an atomic batch word; a worker that finished the
// previous batch spins on that word for up to kSpinFor, then parks on a
// condition variable. The caller waits for the join the same way on an
// atomic count of unfinished tasks. A side that publishes takes the mutex
// and notifies only when the other side has registered as parked;
// registration and the re-check of the word both happen under the mutex
// with sequentially consistent atomics, so no wakeup is lost. Waking a
// parked thread costs tens of microseconds, which the spin avoids while
// batches keep coming and gives back as idle CPU when they stop. A pool
// with more lanes than hardware threads never spins (a spinning lane would
// steal the core another lane needs) and parks at once.
//
// The join counts tasks, not lanes: a worker that has not yet woken for a
// batch is not waited for, and the caller may run the whole batch itself.
// On a loaded host (other processes on every core) a lane can sit
// runnable for milliseconds before it is scheduled; a join that needed
// every lane to check in stalled each batch on the slowest one. The claim
// word carries the batch's generation, so a lane that wakes after its
// batch ended claims nothing. The batch word, the task count and the claim
// word each sit on their own cache line.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
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
      : threadCount_(threads == 0 ? 1 : threads),
        spin_(threadCount_ <= defaultThreadCount()) {
    workers_.reserve(threadCount_ - 1);
    for (std::size_t w = 0; w + 1 < threadCount_; ++w) {
      workers_.emplace_back([this] { workerMain(); });
    }
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    stop_.store(true);
    notifyParked(wake_, parkedWorkers_);
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
  /// inside a task. Throws std::length_error past kMaxTasks.
  void run(std::size_t taskCount, const TaskFn& fn) {
    if (taskCount == 0) return;
    if (workers_.empty() || taskCount == 1) {
      for (std::size_t i = 0; i < taskCount; ++i) fn(i);
      return;
    }
    if (taskCount > kMaxTasks) {
      throw std::length_error("WorkerPool::run: too many tasks");
    }

    // The previous batch is complete, so no lane holds a claim on it and
    // none reads fn_ or firstError_ until it claims from the batch below.
    fn_ = &fn;
    firstError_ = nullptr;
    const std::uint64_t gen = genOf(batch_.load()) + 1;
    pending_.store(taskCount);
    claim_.store(pack(gen, 0));
    batch_.store(pack(gen, taskCount));  // publishes the batch
    notifyParked(wake_, parkedWorkers_);

    drainTasks(pack(gen, taskCount));  // the calling thread is a lane too

    await([this] { return pending_.load() == 0; }, done_, parkedCaller_);
    fn_ = nullptr;
    if (firstError_) std::rethrow_exception(firstError_);
  }

 private:
  /// How long a waiting side spins before it parks: long enough to cover
  /// the gap between back-to-back batches, short enough that an idle pool
  /// stops burning its cores almost at once.
  static constexpr std::chrono::microseconds kSpinFor{50};
  /// Cache-line size on the targets the simulator runs on; keeps the hot
  /// words below from sharing a line.
  static constexpr std::size_t kLine = 64;
  /// Task indices share a word with a 32-bit generation, and a claim may
  /// overshoot the count by one chunk.
  static constexpr std::size_t kMaxTasks = std::uint64_t{1} << 31;

  /// A batch word (generation, task count) or a claim word (generation,
  /// next unclaimed index): the generation in the high half.
  static constexpr std::uint64_t pack(std::uint64_t gen,
                                      std::uint64_t low) noexcept {
    return (gen << 32) | low;
  }
  static constexpr std::uint64_t genOf(std::uint64_t word) noexcept {
    return word >> 32;
  }
  static constexpr std::size_t lowOf(std::uint64_t word) noexcept {
    return static_cast<std::size_t>(word & 0xffff'ffffu);
  }

  void workerMain() {
    std::uint64_t seen = 0;
    for (;;) {
      await([this, &seen] { return stop_.load() || batch_.load() != seen; },
            wake_, parkedWorkers_);
      if (stop_.load()) return;
      seen = batch_.load();
      drainTasks(seen);
    }
  }

  /// Claim and run index chunks of `batch` until it has none left. A lane
  /// that arrives after its batch ended finds the claim word on a newer
  /// generation (or exhausted) and claims nothing, so the caller never
  /// waits for a lane that has no work: the join counts tasks, not lanes.
  void drainTasks(std::uint64_t batch) {
    const std::size_t count = lowOf(batch);
    // Claim at most ~8 chunks per lane: big enough to amortize the
    // atomic, small enough to balance uneven task costs.
    const std::size_t chunk =
        std::max<std::size_t>(1, count / (threadCount_ * 8));
    std::size_t retired = 0;  // claimed by this call, retired at its end
    std::uint64_t word = claim_.load();
    while (genOf(word) == genOf(batch) && lowOf(word) < count) {
      if (!claim_.compare_exchange_weak(word, word + chunk)) continue;
      // [begin, end) is ours: the batch cannot end before we retire it,
      // so fn_ stays valid.
      const std::size_t begin = lowOf(word);
      const std::size_t end = std::min(begin + chunk, count);
      retired += end - begin;
      for (std::size_t i = begin; i < end; ++i) {
        try {
          (*fn_)(i);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!firstError_) firstError_ = std::current_exception();
          }
          // Abandon the rest of the batch: close the claim word and
          // retire every index no lane has claimed yet.
          retired += abandonUnclaimed(batch);
          break;
        }
      }
      word = claim_.load();
    }
    if (retired != 0 && pending_.fetch_sub(retired) == retired) {
      notifyParked(done_, parkedCaller_);
    }
  }

  /// Moves the claim word of `batch` to its count; returns how many
  /// indices that took from the unclaimed tail.
  std::size_t abandonUnclaimed(std::uint64_t batch) {
    const std::size_t count = lowOf(batch);
    std::uint64_t word = claim_.load();
    while (genOf(word) == genOf(batch) && lowOf(word) < count) {
      if (claim_.compare_exchange_weak(word, pack(genOf(batch), count))) {
        return count - lowOf(word);
      }
    }
    return 0;
  }

  /// Block until `ready()` holds: spin for up to kSpinFor when the pool
  /// may spin, then park on `cv`, counted in `parked` so the publishing
  /// side knows to notify. `ready` reads only seq_cst atomics.
  template <class Ready>
  void await(const Ready& ready, std::condition_variable& cv,
             std::atomic<std::size_t>& parked) {
    if (spin_) {
      const auto deadline = std::chrono::steady_clock::now() + kSpinFor;
      for (unsigned spins = 1;; ++spins) {
        if (ready()) return;
        cpuRelax();
        // Read the clock only every 16 pauses: cheap, and still bounded
        // in wall time however slow a pause is on this host.
        if (spins % 16 == 0 && std::chrono::steady_clock::now() >= deadline) {
          break;
        }
      }
    }
    std::unique_lock<std::mutex> lock(mutex_);
    parked.fetch_add(1);
    cv.wait(lock, ready);
    parked.fetch_sub(1);
  }

  /// The publishing half of await(): called after the word a waiter's
  /// `ready` reads has changed. Either the waiter registered before the
  /// change (we see `parked` > 0 and notify under the mutex it re-checks
  /// under) or its re-check sees the change; seq_cst on both words rules
  /// out the third case.
  void notifyParked(std::condition_variable& cv,
                    std::atomic<std::size_t>& parked) {
    if (parked.load() == 0) return;
    { std::lock_guard<std::mutex> lock(mutex_); }
    cv.notify_all();
  }

  static void cpuRelax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  const std::size_t threadCount_;
  /// Spin before parking only when every lane can own a hardware thread.
  const bool spin_;

  // Parking: the mutex guards the condition-variable waits and the first
  // task error.
  std::mutex mutex_;
  std::condition_variable wake_;  // workers park here between batches
  std::condition_variable done_;  // the caller parks here for the join
  std::atomic<std::size_t> parkedWorkers_{0};
  std::atomic<std::size_t> parkedCaller_{0};
  std::exception_ptr firstError_;
  std::atomic<bool> stop_{false};

  // The current batch's task; written by the caller before it opens the
  // claim word, read only by a lane holding a claim on that batch.
  const TaskFn* fn_ = nullptr;

  /// (generation, task count) of the latest batch: the word idle lanes
  /// wait on.
  alignas(kLine) std::atomic<std::uint64_t> batch_{0};
  /// Tasks of the current batch not yet finished or abandoned: the word
  /// the caller waits on.
  alignas(kLine) std::atomic<std::size_t> pending_{0};
  /// (generation, next unclaimed index): the word lanes claim chunks from.
  alignas(kLine) std::atomic<std::uint64_t> claim_{0};

  // Declared last: the threads use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace avmem::sim
