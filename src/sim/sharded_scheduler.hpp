// Sharded round-robin maintenance scheduling.
//
// A population of N members that each need a periodic callback used to cost
// N PeriodicTask heap entries — at million-node scale the event queue is
// dominated by maintenance timers, not protocol work. ShardedScheduler keeps
// the per-member phase jitter (each member still fires once per period, at a
// member-specific offset) but quantizes the offsets onto K slots of a timing
// wheel: the queue holds at most K periodic entries regardless of N, and one
// slot firing walks its members in insertion order.
//
// With K >= N every member occupies its own slot and the schedule is the
// per-member-task schedule exactly; smaller K trades offset granularity
// (period / K) for O(K) queue pressure. An explicit shardCount above the
// member count is clamped to memberCount — extra slots could only sit empty,
// and the clamp keeps shardCount() an honest bound on queue pressure;
// shardCount() reports the effective (post-clamp) count. Determinism is
// preserved: slot assignment is a pure function of the caller-supplied
// jitter RNG, and within a slot members run in a fixed order.
//
// Barrier dispatch: a slot firing runs a two-phase
// plan → commit protocol over its members. The plan callbacks for all of a
// slot's members are fanned out across a WorkerPool and joined — simulated
// time never advances while workers run, so the event queue stays
// single-threaded — and the commit callbacks then run serially in slot
// order. Because plan callbacks are read-only against shared state (the
// caller's contract), results are bit-identical for any thread count,
// including a null pool (every plan inline).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/worker_pool.hpp"

namespace avmem::sim {

/// K-slot timing wheel over a fixed member population.
class ShardedScheduler {
 public:
  /// Barrier-mode callback: `member` is the member index, `lane` is the
  /// member's position within its firing slot (0 .. slot size - 1). Plan
  /// callbacks run concurrently and must be read-only against shared
  /// state, writing results only to lane-indexed buffers; commit callbacks
  /// run serially in lane order.
  using PhaseFn = std::function<void(std::uint32_t member, std::size_t lane)>;

  ShardedScheduler() = default;
  ShardedScheduler(const ShardedScheduler&) = delete;
  ShardedScheduler& operator=(const ShardedScheduler&) = delete;

  /// Queue-pressure-vs-granularity default: per-member slots up to
  /// kMaxAutoShards, then capped (offset granularity degrades gracefully:
  /// period / kMaxAutoShards).
  static constexpr std::size_t kMaxAutoShards = 256;

  [[nodiscard]] static std::size_t autoShardCount(
      std::size_t memberCount) noexcept {
    return std::clamp<std::size_t>(memberCount, std::size_t{1},
                                   kMaxAutoShards);
  }

  /// Each slot's members, in slot order.
  using Slots = std::vector<std::vector<std::uint32_t>>;

  /// Distribute `memberCount` members over `shardCount` slots (0 = auto;
  /// explicit counts above memberCount clamp to memberCount — see the
  /// header comment) of one `period`. Member m's phase offset is drawn
  /// uniformly in [0, period) from `jitter` and quantized to its slot. A
  /// pure function of its arguments, so warm-state restore (snapshot/)
  /// recomputes a checkpointed wheel's assignment and checks its armed
  /// slots before installing anything. Empty when there is nothing to
  /// schedule.
  [[nodiscard]] static Slots assignSlots(std::size_t memberCount,
                                         std::size_t shardCount,
                                         SimDuration period, Rng jitter) {
    if (memberCount == 0 || period <= SimDuration::zero()) return {};
    const std::size_t shards =
        shardCount == 0 ? autoShardCount(memberCount)
                        : std::min(shardCount, memberCount);
    Slots slots(shards);
    const auto periodUs = static_cast<std::uint64_t>(period.toMicros());
    for (std::uint32_t m = 0; m < memberCount; ++m) {
      const std::uint64_t offsetUs = jitter.below(periodUs);
      // < shards by construction
      slots[static_cast<std::size_t>((offsetUs * shards) / periodUs)]
          .push_back(m);
    }
    return slots;
  }

  /// Run `slots` (an assignSlots() result over one `period`). Per slot
  /// firing, run `plan` for every slot member across `pool` (or inline
  /// when pool is null / single-lane), join, then run `commit` for every
  /// member serially in slot order. Replaces any schedule already
  /// running.
  ///
  /// With `arm`, each populated slot's task first fires at
  /// now + slot * period / K, then every period. Without it no slot timer
  /// is armed: warm-state restore (snapshot/) arms each populated slot at
  /// its checkpointed next-fire time via armSlot(), interleaved with other
  /// owners' events in saved tie-break order.
  void start(Simulator& sim, SimDuration period, Slots slots,
             WorkerPool* pool, PhaseFn plan, PhaseFn commit, bool arm) {
    plan_ = std::move(plan);
    commit_ = std::move(commit);
    pool_ = pool;
    tasks_.clear();
    slots_ = std::move(slots);
    taskOfSlot_.assign(slots_.size(), nullptr);
    sim_ = &sim;
    period_ = period;
    memberCount_ = 0;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if (slots_[s].empty()) continue;  // no timer for an empty slot
      memberCount_ += slots_[s].size();
      auto task = std::make_unique<PeriodicTask>();
      taskOfSlot_[s] = task.get();
      tasks_.push_back(std::move(task));
    }
    if (arm) {
      const auto periodUs = static_cast<std::uint64_t>(period.toMicros());
      for (std::size_t s = 0; s < slots_.size(); ++s) {
        if (slots_[s].empty()) continue;
        armSlot(s, sim.now() + SimDuration::micros(static_cast<std::int64_t>(
                                   (periodUs * s) / slots_.size())));
      }
    }
  }

  /// Arm (or re-arm) populated slot `s` to first fire at `at`, then every
  /// period. Requires a started (armed or not) schedule and a populated
  /// slot — restore arms exactly the slots the checkpoint recorded, after
  /// checking them against assignSlots().
  void armSlot(std::size_t s, SimTime at) {
    PeriodicTask* task = s < taskOfSlot_.size() ? taskOfSlot_[s] : nullptr;
    if (task == nullptr) {
      throw std::invalid_argument("ShardedScheduler::armSlot: empty slot");
    }
    task->start(*sim_, at, period_, [this, s] { fireSlot(s); });
  }

  /// The populated slot's periodic task (nullptr for empty slots) — the
  /// checkpoint writer reads each task's nextFireAt and pending-event seq.
  [[nodiscard]] const PeriodicTask* slotTask(std::size_t s) const noexcept {
    return s < taskOfSlot_.size() ? taskOfSlot_[s] : nullptr;
  }

  /// Cancel all slot timers; safe to call repeatedly.
  void stop() noexcept {
    tasks_.clear();  // PeriodicTask cancels in its destructor
    slots_.clear();
    taskOfSlot_.clear();
  }

  [[nodiscard]] bool running() const noexcept { return !tasks_.empty(); }

  /// Number of populated slots = periodic heap entries this schedule costs.
  [[nodiscard]] std::size_t activeShardCount() const noexcept {
    return tasks_.size();
  }
  /// Effective slot count after auto-selection and the memberCount clamp.
  [[nodiscard]] std::size_t shardCount() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] std::size_t memberCount() const noexcept {
    return memberCount_;
  }
  /// Largest slot population — the lane-buffer capacity barrier-mode
  /// callers need for their per-member plan storage.
  [[nodiscard]] std::size_t maxSlotPopulation() const noexcept {
    std::size_t maxSize = 0;
    for (const auto& slot : slots_) maxSize = std::max(maxSize, slot.size());
    return maxSize;
  }
  /// Host wall-clock spent in barrier-mode plan phases (including the
  /// join) since start(). The plan share of maintenance is the part
  /// parallel dispatch scales; benches report it so the Amdahl picture
  /// per workload is measured, not guessed.
  [[nodiscard]] double planWallSeconds() const noexcept {
    return static_cast<double>(planWallNs_) * 1e-9;
  }
  /// Host wall-clock spent in barrier-mode serial commit phases.
  [[nodiscard]] double commitWallSeconds() const noexcept {
    return static_cast<double>(commitWallNs_) * 1e-9;
  }
  /// Plan/commit firings since start().
  [[nodiscard]] std::uint64_t barrierFirings() const noexcept {
    return barrierFirings_;
  }
  // avbench's fixed per-layer schema reads these two; always 0.
  [[nodiscard]] std::uint64_t pipelinedFirings() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t discardedSpeculations() const noexcept {
    return 0;
  }
  /// Total member-plans executed by plan/commit firings — the numerator
  /// of plan nodes/s.
  [[nodiscard]] std::uint64_t plannedMembers() const noexcept {
    return plannedMembers_;
  }
  /// Plan wall per firing, in nanoseconds, in firing order — benches
  /// derive the per-slot plan-wall p50/p99 from this.
  [[nodiscard]] const std::vector<std::uint64_t>& planWallSamplesNs()
      const noexcept {
    return planSamplesNs_;
  }

 private:
  void fireSlot(std::size_t s) {
    const std::vector<std::uint32_t>& members = slots_[s];
    using HostClock = std::chrono::steady_clock;
    const auto ns = [](HostClock::time_point a, HostClock::time_point b) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
              .count());
    };
    const auto t0 = HostClock::now();

    // Parallel read-only plans joined here.
    if (pool_ != nullptr && pool_->threadCount() > 1 && members.size() > 1) {
      pool_->run(members.size(),
                 [this, &members](std::size_t j) { plan_(members[j], j); });
    } else {
      for (std::size_t j = 0; j < members.size(); ++j) plan_(members[j], j);
    }
    const auto t1 = HostClock::now();

    for (std::size_t j = 0; j < members.size(); ++j) commit_(members[j], j);
    const auto t2 = HostClock::now();

    const std::uint64_t planNs = ns(t0, t1);
    planWallNs_ += planNs;
    commitWallNs_ += ns(t1, t2);
    planSamplesNs_.push_back(planNs);
    plannedMembers_ += members.size();
    ++barrierFirings_;
  }

  std::vector<std::vector<std::uint32_t>> slots_;
  std::vector<std::unique_ptr<PeriodicTask>> tasks_;
  PhaseFn plan_;
  PhaseFn commit_;
  WorkerPool* pool_ = nullptr;
  Simulator* sim_ = nullptr;
  SimDuration period_ = SimDuration::zero();
  std::size_t memberCount_ = 0;
  std::uint64_t planWallNs_ = 0;
  std::uint64_t commitWallNs_ = 0;
  std::vector<PeriodicTask*> taskOfSlot_;
  std::uint64_t barrierFirings_ = 0;
  std::uint64_t plannedMembers_ = 0;
  std::vector<std::uint64_t> planSamplesNs_;
};

}  // namespace avmem::sim
