// The discrete-event simulator driving every experiment.
//
// Single-threaded by design: distributed-protocol simulations at this scale
// (thousands of nodes, millions of events) are bound by event dispatch, and
// a single deterministic thread gives exact reproducibility — concurrency
// in the *simulated* system is modeled by event interleaving, not host
// threads.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace avmem::sim {

/// Owns the virtual clock and the event queue.
class Simulator {
 public:
  using Callback = EventQueue::Callback;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `fn` after `delay` (>= 0) from now.
  EventHandle schedule(SimDuration delay, Callback fn) {
    if (delay < SimDuration::zero()) {
      throw std::invalid_argument("Simulator::schedule: negative delay");
    }
    return queue_.schedule(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at absolute time `at` (>= now).
  EventHandle scheduleAt(SimTime at, Callback fn) {
    if (at < now_) {
      throw std::invalid_argument("Simulator::scheduleAt: time in the past");
    }
    return queue_.schedule(at, std::move(fn));
  }

  /// Run a single event. Returns false if the queue is empty.
  bool step() {
    SimTime at;
    Callback fn;
    if (!queue_.popNext(at, fn)) return false;
    now_ = at;
    ++executed_;
    fn();
    return true;
  }

  /// Run until the queue drains or the clock passes `until` (events at
  /// exactly `until` still run). The clock is left at min(until, last event).
  /// Gates on the next *live* event: a lazily-cancelled head (e.g. a
  /// rearmed channel wake) must not let a later event run past `until`.
  void runUntil(SimTime until) {
    SimTime next;
    while (queue_.nextLiveTime(next) && next <= until) {
      step();
    }
    if (now_ < until) now_ = until;
  }

  /// Run until the event queue is fully drained.
  void runAll() {
    while (step()) {
    }
  }

  [[nodiscard]] std::uint64_t executedEvents() const noexcept {
    return executed_;
  }
  [[nodiscard]] std::size_t pendingEvents() const noexcept {
    return queue_.size();
  }

  /// Number of live (not fired, not cancelled) pending events. Linear
  /// scan — checkpoint-time introspection (snapshot/), not a hot query.
  [[nodiscard]] std::size_t liveEventCount() const noexcept {
    return queue_.liveCount();
  }

  /// Tie-break sequence number of the pending event `h` tracks (false if
  /// fired/cancelled). Checkpoint-time introspection (snapshot/).
  [[nodiscard]] bool eventSeqOf(const EventHandle& h,
                                std::uint64_t& seq) const noexcept {
    return queue_.seqOf(h, seq);
  }

  /// Warm-state restore (snapshot/): adopt a checkpointed clock and
  /// executed-event count. Only valid while no live event is pending —
  /// the restore path arms the saved events afterwards, at or after
  /// `now`, so nothing can observe the clock jumping.
  void restoreClock(SimTime now, std::uint64_t executed) {
    if (queue_.liveCount() != 0) {
      throw std::logic_error(
          "Simulator::restoreClock: live events already pending");
    }
    now_ = now;
    executed_ = executed;
  }

 private:
  EventQueue queue_;
  SimTime now_ = SimTime::zero();
  std::uint64_t executed_ = 0;
};

/// Repeating timer: runs `fn` every `period`, starting at `start`,
/// until cancelled. Fires through the owning simulator's queue.
class PeriodicTask {
 public:
  PeriodicTask() = default;

  /// Non-copyable (the rescheduling closure captures `this`).
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  ~PeriodicTask() { stop(); }

  /// Begin firing. `fn` runs at start, start+period, start+2*period, ...
  void start(Simulator& sim, SimTime firstAt, SimDuration period,
             std::function<void()> fn) {
    stop();
    sim_ = &sim;
    period_ = period;
    fn_ = std::move(fn);
    nextFireAt_ = firstAt;
    handle_ = sim_->scheduleAt(firstAt, [this] { fire(); });
  }

  /// Stop firing; safe to call repeatedly or from inside `fn`. The
  /// closure and what it captured are freed now, or, when `fn` stops its
  /// own task, as soon as `fn` returns.
  void stop() noexcept {
    handle_.cancel();
    sim_ = nullptr;
    if (!firing_) fn_ = nullptr;
  }

  [[nodiscard]] bool running() const noexcept { return sim_ != nullptr; }

  /// Handle of the pending next firing. Because fire() reschedules
  /// before invoking `fn_`, this is valid even while `fn_` runs; the
  /// checkpoint writer maps it to the event's queue sequence number.
  [[nodiscard]] const EventHandle& pendingHandle() const noexcept {
    return handle_;
  }
  /// Simulated time of the pending next firing (meaningful while
  /// running()).
  [[nodiscard]] SimTime nextFireAt() const noexcept { return nextFireAt_; }

 private:
  void fire() {
    if (sim_ == nullptr) return;
    // Reschedule before invoking so `fn_` may call stop().
    nextFireAt_ = sim_->now() + period_;
    handle_ = sim_->schedule(period_, [this] { fire(); });
    firing_ = true;
    fn_();
    firing_ = false;
    if (sim_ == nullptr) fn_ = nullptr;  // `fn` stopped its own task
  }

  Simulator* sim_ = nullptr;
  bool firing_ = false;
  SimDuration period_ = SimDuration::zero();
  std::function<void()> fn_;
  EventHandle handle_;
  SimTime nextFireAt_ = SimTime::zero();
};

}  // namespace avmem::sim
