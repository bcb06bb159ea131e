// The discrete-event priority queue.
//
// Events at equal timestamps fire in scheduling order (a stable tiebreak via
// a monotone sequence number), which keeps runs deterministic. Implemented
// over std::*_heap directly (rather than std::priority_queue) so popped
// events can be moved out of the heap storage.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace avmem::sim {

/// Handle that can cancel a scheduled event.
///
/// Cancellation is lazy: the queue drops cancelled events when they are
/// popped. Handles are cheap to copy and safe to hold after firing.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event; a no-op if it has already fired or been cancelled.
  void cancel() noexcept {
    if (alive_) *alive_ = false;
  }

  /// True if the event is still pending (not fired, not cancelled).
  [[nodiscard]] bool pending() const noexcept { return alive_ && *alive_; }

 private:
  friend class EventQueue;
  explicit EventHandle(std::shared_ptr<bool> alive) noexcept
      : alive_(std::move(alive)) {}
  std::shared_ptr<bool> alive_;
};

/// Min-heap of timestamped callbacks with stable FIFO tie-breaking.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedule `fn` to run at absolute time `at`. Returns a cancel handle.
  EventHandle schedule(SimTime at, Callback fn) {
    auto alive = std::make_shared<bool>(true);
    heap_.push_back(Event{at, nextSeq_++, alive, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return EventHandle{std::move(alive)};
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Timestamp of the earliest pending event; requires !empty(). May
  /// report a lazily-cancelled event's time — callers that gate on "is
  /// there work before T" must use nextLiveTime() instead.
  [[nodiscard]] SimTime nextTime() const { return heap_.front().at; }

  /// Timestamp of the earliest *live* event, discarding cancelled heads
  /// on the way (they would be skipped by popNext anyway). Returns false
  /// if nothing live remains. Without this, a cancelled head makes a
  /// horizon check like `nextTime() <= until` pass and the following pop
  /// silently runs a later event past the horizon.
  [[nodiscard]] bool nextLiveTime(SimTime& at) {
    while (!heap_.empty()) {
      if (*heap_.front().alive) {
        at = heap_.front().at;
        return true;
      }
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
    return false;
  }

  /// Pop and return the earliest event, skipping cancelled ones.
  /// Returns false if the queue drained.
  bool popNext(SimTime& at, Callback& fn) {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      Event ev = std::move(heap_.back());
      heap_.pop_back();
      if (!*ev.alive) continue;  // lazily dropped cancellation
      *ev.alive = false;         // mark fired
      at = ev.at;
      fn = std::move(ev.fn);
      return true;
    }
    return false;
  }

  /// Number of *live* (not fired, not cancelled) pending events. Linear
  /// scan — checkpoint-time introspection, not a hot-path query.
  [[nodiscard]] std::size_t liveCount() const noexcept {
    std::size_t n = 0;
    for (const Event& ev : heap_) n += *ev.alive ? 1 : 0;
    return n;
  }

  /// Sequence number of the pending event `h` tracks, or false if it has
  /// fired or been cancelled. Linear scan; checkpoint-time only. The seq
  /// is what breaks ties between events at equal timestamps, so a
  /// checkpoint that re-arms events must preserve the relative seq order
  /// of everything it saves (snapshot/checkpoint.cpp sorts on it).
  [[nodiscard]] bool seqOf(const EventHandle& h,
                           std::uint64_t& seq) const noexcept {
    if (!h.pending()) return false;
    for (const Event& ev : heap_) {
      if (ev.alive == h.alive_) {
        seq = ev.seq;
        return true;
      }
    }
    return false;
  }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq = 0;
    std::shared_ptr<bool> alive;
    Callback fn;
  };

  // Max-heap comparator inverted to produce a min-heap on (at, seq).
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::vector<Event> heap_;
  std::uint64_t nextSeq_ = 0;
};

}  // namespace avmem::sim
