// The typed batched-message path for gossip shuffles.
//
// The closure-per-message network path (`Network::send` / `sendWithAck`)
// allocates a `std::function` — usually several, each capturing a vector —
// for every message leg of every exchange. At million-node scale the CYCLON
// shuffle sends four legs per exchange per period, and that machinery was
// measured (gprofng, PR 3) as the serial ~30% of warm-up wall that capped
// the parallel speedup.
//
// ShuffleChannel replaces it with plain data: every in-flight shuffle leg
// is one POD `ShuffleMsg` record in a (due, push-order) min-heap, entry
// payloads live in one shared arena, and a single coalescing wake event
// drains every record that is due at an instant — so the per-message cost
// is a heap push, not a closure allocation. Latencies are sampled in the
// same aggregate enqueue pass (one `LatencyModel::sample` per leg, drawn
// from the channel's own RNG fork) and optionally quantized up onto a
// delivery grid (`quantum`), which lands many records on the same
// instant: the drain hands the sink whole delivery *batches*, and the sink
// may plan independent per-node work concurrently (plan/commit, see
// avmon/shuffle_service.*). All byte/delivery accounting lands in the
// owning Network's `NetworkStats`, so overhead analyses see exactly the
// traffic the closure path would have produced:
//
//  * request:  counted sent, delivered/droppedOffline/rejected at the
//              delivery instant (online checked then, like any datagram);
//  * reply:    counted sent, fire-and-forget, echoes the request payload
//              back so the initiator can reconstruct what it sent away;
//  * ack:      counted acksSent + kAckBytes, sent only when the receiver
//              accepts; settles the pending timeout;
//  * timeout:  fires ackTimeouts + a timeout delivery iff no ack arrived
//              first — FIFO push order breaks due-time ties, so an ack
//              landing exactly at the deadline loses to the timeout,
//              matching `sendWithAck`.
//
// A reply that arrives after its exchange already timed out is still
// delivered (the records are independent, exactly like the closure path's
// separate reply datagram) — late replies merge; only the ack/timeout race
// is exclusive.
#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace avmem::net {

/// One in-flight shuffle leg: a trivially-copyable wire record. Entry
/// payloads are (offset, count) spans into the channel's arena, not owned
/// vectors — the record itself never allocates.
struct ShuffleMsg {
  enum class Kind : std::uint8_t { kRequest, kReply, kAck, kTimeout };
  Kind kind = Kind::kRequest;
  NodeIndex src = 0;  ///< logical sender (kTimeout: the waiting initiator)
  NodeIndex dst = 0;  ///< receiver (kTimeout: the unresponsive partner)
  std::uint32_t payloadOffset = 0;  ///< membership entries, arena span
  std::uint32_t payloadCount = 0;
  std::uint32_t echoOffset = 0;  ///< kReply: the request payload, echoed
  std::uint32_t echoCount = 0;
  std::uint64_t seq = 0;    ///< request id pairing ack/timeout to request
  std::uint64_t order = 0;  ///< global push order: the final FIFO tie-break
  std::int64_t dueUs = 0;   ///< quantized delivery instant (micros)
  /// Unquantized delivery instant: records sharing a grid line process in
  /// true arrival order, so quantization cannot flip a race the exact
  /// timeline had already decided (an ack that truly beat its deadline
  /// still beats the timeout after both round up to the same instant).
  std::int64_t rawDueUs = 0;
};
static_assert(std::is_trivially_copyable_v<ShuffleMsg>,
              "the batched path must stay allocation-free per message");

/// One gated delivery handed to the sink: requests and replies that
/// reached an online receiver, plus timeouts that actually fired. Spans
/// point into the channel arena and are valid for the duration of the
/// `onShuffleBatch` call.
struct ShuffleDelivery {
  ShuffleMsg::Kind kind = ShuffleMsg::Kind::kRequest;
  /// The node whose protocol state this delivery mutates: the receiver
  /// for requests/replies, the waiting initiator for timeouts.
  NodeIndex node = 0;
  /// The other endpoint: the request/reply sender, or the unresponsive
  /// partner for timeouts.
  NodeIndex peer = 0;
  std::uint64_t seq = 0;  ///< request id (keys per-exchange RNG streams)
  std::span<const NodeIndex> payload;  ///< offered entries / reply entries
  std::span<const NodeIndex> echo;     ///< kReply: what `node` sent away
};

/// The sink's verdict on one request delivery (batch order). `reply` must
/// point into sink-owned storage that stays valid until `onShuffleBatch`
/// returns; the channel copies it into the wire arena.
struct ShuffleRequestOutcome {
  bool accept = false;  ///< false = receiver-side rejection: no reply/ack
  std::span<const NodeIndex> reply;
};

/// Receiver of typed shuffle traffic.
class ShuffleSink {
 public:
  virtual ~ShuffleSink() = default;

  /// Process every delivery due at one instant, in (due, push) order.
  /// Deliveries to distinct `node`s are independent, so implementations
  /// may fan per-node planning across a worker pool as long as results
  /// equal in-order serial processing (the plan/commit contract). For
  /// each kRequest delivery, append one `ShuffleRequestOutcome` to
  /// `outcomes` (in batch order); the channel then emits replies and acks
  /// for accepted requests and counts rejections.
  virtual void onShuffleBatch(std::span<const ShuffleDelivery> batch,
                              std::vector<ShuffleRequestOutcome>& outcomes) = 0;
};

/// The POD message queue. One per shuffle service; accounting flows into
/// the owning Network's stats (the channel is the network's typed lane,
/// not a second network).
class ShuffleChannel {
 public:
  /// `quantum` > 0 rounds every delivery instant *up* onto that
  /// grid, which coalesces records into real batches (the paper's U[20,80]
  /// ms hop latency keeps its spread; each sample just lands on the next
  /// grid line). 0 = exact instants, batches form only on natural ties.
  ShuffleChannel(sim::Simulator& sim, Network& network, ShuffleSink& sink,
                 sim::SimDuration ackTimeout, sim::SimDuration quantum,
                 sim::Rng rng)
      : sim_(sim),
        network_(network),
        sink_(sink),
        ackTimeoutUs_(ackTimeout.toMicros()),
        quantumUs_(quantum.toMicros()),
        rng_(rng) {}

  ShuffleChannel(const ShuffleChannel&) = delete;
  ShuffleChannel& operator=(const ShuffleChannel&) = delete;

  /// Enqueue one shuffle request plus its timeout sentinel. Counted as one
  /// sent message of `payload.size()` membership entries; the partner
  /// comes back as a kTimeout delivery unless it acks in time. Safe to
  /// call in bulk from a serial commit pass — the wake event coalesces
  /// across the batch.
  void sendRequest(NodeIndex src, NodeIndex dst,
                   std::span<const NodeIndex> payload) {
    NetworkStats& stats = network_.stats_;
    ++stats.sent;
    stats.bytesSent += payload.size() * Network::kMembershipEntryBytes;

    // The latency sample is drawn whether or not the injector then drops
    // the record, so the channel's wire RNG consumption never depends on
    // fault dice.
    const std::int64_t lat = sampleLatencyUs();
    const fault::WireVerdict v =
        network_.fate(fault::WireKind::kShuffleRequest, src, dst);
    if (!v.drop) {
      ShuffleMsg req{};
      req.kind = ShuffleMsg::Kind::kRequest;
      req.src = src;
      req.dst = dst;
      req.payloadOffset = appendSpan(payload);
      req.payloadCount = static_cast<std::uint32_t>(payload.size());
      req.seq = nextSeq_;
      pushLeg(req, lat, v);
    }
    // The timeout sentinel always arms: a dropped request looks to the
    // initiator exactly like an unresponsive partner.
    ShuffleMsg timeout{};
    timeout.kind = ShuffleMsg::Kind::kTimeout;
    timeout.src = src;
    timeout.dst = dst;
    timeout.seq = nextSeq_;
    timeout.rawDueUs = nowUs() + ackTimeoutUs_;
    timeout.dueUs = quantize(timeout.rawDueUs);
    push(timeout);

    awaitingAck_.insert(awaitingAck_.end(), nextSeq_);
    ++nextSeq_;
  }

  /// Everything a warm-state checkpoint must capture to continue the
  /// channel bit-identically: the raw heap array (heap order is part of
  /// the state — pops depend on the array layout), the arena, the pending
  /// ack set, the armed wake instant and the wire RNG. A restore installs
  /// it into a fresh channel, whose wake is not armed yet; the restore
  /// orchestrator then calls armWake() in saved event-tie-break order.
  [[nodiscard]] auto persistedState() const noexcept {
    return std::tie(heap_, arena_, liveEntries_, awaitingAck_, nextSeq_,
                    nextOrder_, scheduledWakeUs_, rng_);
  }
  [[nodiscard]] auto persistedState() noexcept {
    return std::tie(heap_, arena_, liveEntries_, awaitingAck_, nextSeq_,
                    nextOrder_, scheduledWakeUs_, rng_);
  }

  /// scheduledWakeMicros() of an idle channel.
  static constexpr std::int64_t kNoWake = -1;

  /// Arm the single coalescing wake at the restored instant (restore
  /// path; a no-op when the restored channel was idle).
  void armWake() {
    if (scheduledWakeUs_ == kNoWake) return;
    wake_ = sim_.scheduleAt(sim::SimTime::micros(scheduledWakeUs_), [this] {
      scheduledWakeUs_ = kNoWake;
      drain();
    });
  }

  /// The armed wake instant (kNoWake when idle) and its handle, for
  /// the checkpoint writer's event accounting.
  [[nodiscard]] std::int64_t scheduledWakeMicros() const noexcept {
    return scheduledWakeUs_;
  }
  [[nodiscard]] const sim::EventHandle& wakeHandle() const noexcept {
    return wake_;
  }

  /// In-flight records (requests + replies + acks + pending timeouts).
  [[nodiscard]] std::size_t pendingMessages() const noexcept {
    return heap_.size();
  }
  /// Arena entries currently referenced by in-flight records (the
  /// compaction invariant tests watch).
  [[nodiscard]] std::size_t liveArenaEntries() const noexcept {
    return liveEntries_;
  }
  /// Current arena length including retired spans (cleared when the
  /// channel drains empty, compacted when mostly dead).
  [[nodiscard]] std::size_t arenaEntries() const noexcept {
    return arena_.size();
  }

 private:
  /// Below this arena length compaction is never worth the copy.
  static constexpr std::size_t kCompactMinEntries = 4096;

  [[nodiscard]] std::int64_t nowUs() const noexcept {
    return sim_.now().toMicros();
  }
  [[nodiscard]] std::int64_t sampleLatencyUs() {
    return network_.latency_->sample(rng_).toMicros();
  }

  [[nodiscard]] std::int64_t quantize(std::int64_t dueUs) const noexcept {
    if (quantumUs_ <= 0) return dueUs;
    return ((dueUs + quantumUs_ - 1) / quantumUs_) * quantumUs_;
  }

  /// Append external entries (must not alias the arena) and return the
  /// span offset.
  std::uint32_t appendSpan(std::span<const NodeIndex> s) {
    const auto off = static_cast<std::uint32_t>(arena_.size());
    arena_.insert(arena_.end(), s.begin(), s.end());
    liveEntries_ += s.size();
    return off;
  }

  /// Copy an existing arena span to the tail (index-based, so the source
  /// staying inside the reallocating vector is fine) and return the new
  /// offset.
  std::uint32_t appendFromArena(std::uint32_t srcOff, std::uint32_t count) {
    const auto off = static_cast<std::uint32_t>(arena_.size());
    arena_.resize(arena_.size() + count);
    std::copy_n(arena_.begin() + srcOff, count, arena_.begin() + off);
    liveEntries_ += count;
    return off;
  }

  [[nodiscard]] std::span<const NodeIndex> payloadOf(
      const ShuffleMsg& m) const {
    return {arena_.data() + m.payloadOffset, m.payloadCount};
  }
  [[nodiscard]] std::span<const NodeIndex> echoOf(const ShuffleMsg& m) const {
    return {arena_.data() + m.echoOffset, m.echoCount};
  }

  /// Min-heap on (quantized due, raw due, push order) via inverted
  /// comparator — the raw-due tie-break keeps quantized batches in true
  /// arrival order.
  struct Later {
    bool operator()(const ShuffleMsg& a, const ShuffleMsg& b) const noexcept {
      if (a.dueUs != b.dueUs) return a.dueUs > b.dueUs;
      if (a.rawDueUs != b.rawDueUs) return a.rawDueUs > b.rawDueUs;
      return a.order > b.order;
    }
  };

  /// Push leg `m` due `latUs` plus the verdict's extra delay from now.
  /// A duplicate verdict pushes a copy `duplicateDelayUs` after it that
  /// owns its own arena spans (requests and replies carry a payload,
  /// replies also an echo, acks neither) — every heap record retires
  /// exactly the entries it references, keeping the liveEntries_
  /// invariant (and compaction) honest under duplication storms.
  void pushLeg(ShuffleMsg m, std::int64_t latUs, const fault::WireVerdict& v) {
    m.rawDueUs = nowUs() + latUs + v.extraDelayUs;
    m.dueUs = quantize(m.rawDueUs);
    push(m);
    if (!v.duplicate) return;
    ShuffleMsg dup = m;
    if (m.kind != ShuffleMsg::Kind::kAck) {
      dup.payloadOffset = appendFromArena(m.payloadOffset, m.payloadCount);
    }
    if (m.kind == ShuffleMsg::Kind::kReply) {
      dup.echoOffset = appendFromArena(m.echoOffset, m.echoCount);
    }
    dup.rawDueUs = m.rawDueUs + v.duplicateDelayUs;
    dup.dueUs = quantize(dup.rawDueUs);
    push(dup);
  }

  void push(ShuffleMsg m) {
    m.order = nextOrder_++;
    heap_.push_back(m);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    // Inside a drain the post-drain reschedule covers every push at once —
    // that is the batching: one wake per delivery instant, not per record.
    if (!draining_) maybeScheduleWake(m.dueUs);
  }

  void maybeScheduleWake(std::int64_t dueUs) {
    if (scheduledWakeUs_ != kNoWake && scheduledWakeUs_ <= dueUs) return;
    wake_.cancel();  // a single armed wake at a time; never a stale chain
    scheduledWakeUs_ = dueUs;
    // The closure captures one pointer: it rides the std::function small-
    // buffer storage, so even the wake costs no allocation beyond the
    // queue's own bookkeeping.
    wake_ = sim_.scheduleAt(sim::SimTime::micros(dueUs), [this] {
      scheduledWakeUs_ = kNoWake;
      drain();
    });
  }

  /// Deliver every record due now as gated batches, then reclaim the
  /// arena and re-arm the wake for the next due instant.
  void drain() {
    draining_ = true;
    const std::int64_t now = nowUs();
    // Replies emitted with zero latency land due == now: loop until the
    // instant is exhausted, cascades included.
    while (!heap_.empty() && heap_.front().dueUs <= now) {
      // Collect the whole batch in (due, push) order.
      batch_.clear();
      while (!heap_.empty() && heap_.front().dueUs <= now) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        batch_.push_back(heap_.back());
        heap_.pop_back();
      }
      deliverBatch();
      for (const ShuffleMsg& m : batch_) {
        liveEntries_ -= m.payloadCount + m.echoCount;
      }
    }
    draining_ = false;
    if (heap_.empty()) {
      arena_.clear();
      liveEntries_ = 0;
    } else {
      maybeCompact();
      maybeScheduleWake(heap_.front().dueUs);
    }
  }

  /// Gate the collected records (online checks, ack/timeout settlement,
  /// wire stats), hand the surviving deliveries to the sink as one batch,
  /// then emit the accepted replies and acks in batch order.
  void deliverBatch() {
    NetworkStats& stats = network_.stats_;
    deliveries_.clear();
    requestRecords_.clear();
    for (const ShuffleMsg& m : batch_) {
      switch (m.kind) {
        case ShuffleMsg::Kind::kRequest: {
          if (!network_.arrives(m.dst)) break;  // the timeout will fire
          deliveries_.push_back({m.kind, m.dst, m.src, m.seq, payloadOf(m),
                                 {}});
          requestRecords_.push_back(m);  // for the echo + reply emission
          break;
        }
        case ShuffleMsg::Kind::kReply: {
          if (!network_.arrives(m.dst)) break;
          deliveries_.push_back(
              {m.kind, m.dst, m.src, m.seq, payloadOf(m), echoOf(m)});
          break;
        }
        case ShuffleMsg::Kind::kAck: {
          awaitingAck_.erase(m.seq);  // settled; a later timeout no-ops
          break;
        }
        case ShuffleMsg::Kind::kTimeout: {
          if (awaitingAck_.erase(m.seq) == 1) {
            ++stats.ackTimeouts;
            deliveries_.push_back({m.kind, m.src, m.dst, m.seq, {}, {}});
          }
          break;
        }
      }
    }
    if (deliveries_.empty()) return;

    outcomes_.clear();
    sink_.onShuffleBatch(deliveries_, outcomes_);

    // Emit replies/acks for the accepted requests, in batch order. The
    // sink's reply spans live in sink-owned storage; the request echo is
    // copied arena-to-arena by offset.
    std::size_t k = 0;
    for (const ShuffleMsg& req : requestRecords_) {
      const ShuffleRequestOutcome& outcome = outcomes_.at(k);
      ++k;
      if (!outcome.accept) {
        ++stats.rejected;  // rejection looks like silence to the sender
        continue;
      }
      ++stats.sent;
      stats.bytesSent +=
          outcome.reply.size() * Network::kMembershipEntryBytes;
      const std::int64_t replyLat = sampleLatencyUs();
      const fault::WireVerdict replyFate =
          network_.fate(fault::WireKind::kShuffleReply, req.dst, req.src);
      if (!replyFate.drop) {
        ShuffleMsg reply{};
        reply.kind = ShuffleMsg::Kind::kReply;
        reply.src = req.dst;
        reply.dst = req.src;
        reply.seq = req.seq;
        reply.payloadOffset = appendSpan(outcome.reply);
        reply.payloadCount = static_cast<std::uint32_t>(outcome.reply.size());
        reply.echoOffset =
            appendFromArena(req.payloadOffset, req.payloadCount);
        reply.echoCount = req.payloadCount;
        pushLeg(reply, replyLat, replyFate);
      }

      ++stats.acksSent;
      stats.bytesSent += Network::kAckBytes;
      const std::int64_t ackLat = sampleLatencyUs();
      const fault::WireVerdict ackFate =
          network_.fate(fault::WireKind::kShuffleAck, req.dst, req.src);
      if (!ackFate.drop) {
        // A dropped ack leaves the exchange settled at the receiver but
        // the initiator times out anyway — the classic ack-loss storm
        // the anycast/shuffle retry paths must tolerate.
        ShuffleMsg ack{};
        ack.kind = ShuffleMsg::Kind::kAck;
        ack.src = req.dst;
        ack.dst = req.src;
        ack.seq = req.seq;
        pushLeg(ack, ackLat, ackFate);
      }
    }
  }

  /// Rewrite live spans into a fresh arena when most of it is retired.
  /// Only offsets change; the heap order is untouched.
  void maybeCompact() {
    if (arena_.size() <= kCompactMinEntries ||
        liveEntries_ * 2 >= arena_.size()) {
      return;
    }
    std::vector<NodeIndex> fresh;
    fresh.reserve(liveEntries_);
    for (ShuffleMsg& m : heap_) {
      const auto p = static_cast<std::uint32_t>(fresh.size());
      fresh.insert(fresh.end(), arena_.begin() + m.payloadOffset,
                   arena_.begin() + m.payloadOffset + m.payloadCount);
      m.payloadOffset = p;
      const auto e = static_cast<std::uint32_t>(fresh.size());
      fresh.insert(fresh.end(), arena_.begin() + m.echoOffset,
                   arena_.begin() + m.echoOffset + m.echoCount);
      m.echoOffset = e;
    }
    arena_.swap(fresh);
  }

  sim::Simulator& sim_;
  Network& network_;
  ShuffleSink& sink_;
  std::int64_t ackTimeoutUs_;
  std::int64_t quantumUs_;
  sim::Rng rng_;

  std::vector<ShuffleMsg> heap_;   ///< (due, order) min-heap
  std::vector<NodeIndex> arena_;   ///< entry payload storage
  std::size_t liveEntries_ = 0;    ///< arena entries referenced by heap_
  std::vector<ShuffleMsg> batch_;  ///< drain scratch: records due now
  std::vector<ShuffleDelivery> deliveries_;
  std::vector<ShuffleMsg> requestRecords_;
  std::vector<ShuffleRequestOutcome> outcomes_;
  std::set<std::uint64_t> awaitingAck_;  ///< requests not yet acked, by seq
  std::uint64_t nextSeq_ = 0;
  std::uint64_t nextOrder_ = 0;
  std::int64_t scheduledWakeUs_ = kNoWake;
  sim::EventHandle wake_;
  bool draining_ = false;
};

}  // namespace avmem::net
