// The simulated message-passing network.
//
// Semantics:
//  * every send takes one latency sample and is delivered as a simulator
//    event at now + latency;
//  * delivery succeeds only if the destination is online at the delivery
//    instant (the churn trace is the oracle) — otherwise the message is
//    silently dropped, exactly like a UDP datagram to a dead host;
//  * senders that need failure detection use `sendWithAck`, which models a
//    request/ack exchange with a timeout (retried-greedy anycast relies on
//    this, paper Section 3.2).
//
// The network also keeps global accounting (sent / delivered / rejected /
// dropped / bytes) used by the overhead analyses.
//
// High-volume gossip traffic has a second, typed lane: the batched POD
// message queue in net/shuffle_channel.hpp, which shares this network's
// latency model, online gating, and stats but allocates no closures per
// message (see that header).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <tuple>
#include <utility>

#include "fault/fault_injector.hpp"
#include "net/latency.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace avmem::avmon {
class AvmonSystem;  // billed-ping seam (avmon/avmon_monitors.hpp)
}

namespace avmem::net {

/// Dense node address within one simulation.
using NodeIndex = std::uint32_t;

/// "Sender unknown at this call site" — endpoint-blind sends pass this,
/// and region-scoped fault stages then never match them.
inline constexpr NodeIndex kUnknownSender = 0xFFFFFFFFu;

/// Answers "is node n online right now?" — implemented by the simulation
/// harness over the churn trace.
using OnlineOracle = std::function<bool(NodeIndex)>;

/// Network-level counters.
struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  /// Reached an online receiver that refused the message (receiver-side
  /// verification failure). Rejected messages are *also* counted in
  /// `delivered` — the wire delivered them — so existing columns keep
  /// their meaning; this counter lets the overhead analyses separate
  /// "receiver said no" from `droppedOffline` silence.
  std::uint64_t rejected = 0;
  std::uint64_t droppedOffline = 0;
  std::uint64_t acksSent = 0;
  std::uint64_t ackTimeouts = 0;
  std::uint64_t bytesSent = 0;
  /// Injected-fault accounting (fault/fault_injector.hpp); both stay 0
  /// unless a fault plan is active. A duplicated message can make
  /// `delivered` exceed `sent` — the wire really did deliver two copies.
  std::uint64_t duplicated = 0;
  std::uint64_t injectedDrops = 0;
};

/// The message-passing fabric shared by all simulated nodes.
class Network {
 public:
  /// Called at the delivery instant with the delivery time.
  using DeliveryFn = std::function<void(sim::SimTime)>;

  Network(sim::Simulator& sim, OnlineOracle online,
          std::unique_ptr<LatencyModel> latency, sim::Rng rng)
      : sim_(sim),
        online_(std::move(online)),
        latency_(std::move(latency)),
        rng_(rng) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Fire-and-forget datagram. `onDeliver` runs only if `dst` is online at
  /// the delivery instant. `approxBytes` feeds the bandwidth accounting.
  /// `src` is accounting-only context for the fault injector's region
  /// scoping; callers that know the sender should pass it.
  void send(NodeIndex dst, DeliveryFn onDeliver,
            std::size_t approxBytes = kDefaultMessageBytes,
            NodeIndex src = kUnknownSender) {
    ++stats_.sent;
    stats_.bytesSent += approxBytes;
    sim::SimDuration lat = latency_->sample(rng_);
    if (fault_ != nullptr) {
      const fault::WireVerdict v = fault_->onWire(
          fault::WireKind::kDatagram, src, dst, sim_.now().toMicros());
      if (v.drop) {
        ++stats_.injectedDrops;
        return;  // vanished on the wire; nothing is ever delivered
      }
      if (v.duplicate) {
        ++stats_.duplicated;
        scheduleDelivery(dst, onDeliver,
                         lat + sim::SimDuration::micros(v.duplicateDelayUs));
      }
      lat += sim::SimDuration::micros(v.extraDelayUs);
    }
    scheduleDelivery(dst, std::move(onDeliver), lat);
  }

  /// Called at the delivery instant; returns whether the receiver accepts
  /// the message (an ack is sent only on acceptance, so a rejecting
  /// receiver looks exactly like an offline one to the sender).
  using AckedDeliveryFn = std::function<bool(sim::SimTime)>;

  /// Request/ack exchange: deliver to `dst`; if `dst` is online and
  /// `onDeliver` returns true, an ack travels back (one more latency
  /// sample) and `onAck` runs at the sender. If no ack arrives within
  /// `timeout`, `onTimeout` runs instead. Exactly one of
  /// `onAck` / `onTimeout` fires.
  void sendWithAck(NodeIndex dst, AckedDeliveryFn onDeliver,
                   std::function<void()> onAck,
                   std::function<void()> onTimeout, sim::SimDuration timeout,
                   std::size_t approxBytes = kDefaultMessageBytes,
                   NodeIndex src = kUnknownSender) {
    ++stats_.sent;
    stats_.bytesSent += approxBytes;

    // Shared flag: whichever of {ack, timeout} fires first wins.
    auto settled = std::make_shared<bool>(false);

    sim_.schedule(timeout, [this, settled, fnTimeout = std::move(onTimeout)] {
      if (*settled) return;
      *settled = true;
      ++stats_.ackTimeouts;
      fnTimeout();
    });

    sim::SimDuration lat = latency_->sample(rng_);
    if (fault_ != nullptr) {
      const fault::WireVerdict v = fault_->onWire(
          fault::WireKind::kAckRequest, src, dst, sim_.now().toMicros());
      if (v.drop) {
        ++stats_.injectedDrops;
        return;  // request lost: the timeout (already armed) will fire
      }
      if (v.duplicate) {
        // Both copies are full request deliveries: the receiver sees the
        // message twice and each acceptance acks independently (the
        // settled flag makes the second ack a no-op at the sender).
        ++stats_.duplicated;
        scheduleAckedDelivery(dst, src, onDeliver, onAck, settled,
                              lat + sim::SimDuration::micros(
                                        v.duplicateDelayUs));
      }
      lat += sim::SimDuration::micros(v.extraDelayUs);
    }
    scheduleAckedDelivery(dst, src, std::move(onDeliver), std::move(onAck),
                          settled, lat);
  }

  [[nodiscard]] const NetworkStats& stats() const noexcept { return stats_; }
  void resetStats() noexcept { stats_ = NetworkStats{}; }

  /// Install (or clear) the fault injector consulted at every
  /// delivery-scheduling point. When null — the default — the wire path
  /// is byte-identical to a build without fault/ in the picture: no
  /// extra randomness is drawn and no schedule changes.
  void setFaultInjector(fault::FaultInjector* injector) noexcept {
    fault_ = injector;
  }
  [[nodiscard]] fault::FaultInjector* faultInjector() const noexcept {
    return fault_;
  }

  /// Warm-state checkpointing (snapshot/): the wire counters plus the
  /// latency-sampling RNG, so post-restore sends draw the same latencies
  /// a straight-through run would.
  [[nodiscard]] auto persistedState() const noexcept {
    return std::tie(stats_, rng_);
  }
  [[nodiscard]] auto persistedState() noexcept {
    return std::tie(stats_, rng_);
  }

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }

  /// Is `n` online right now (exposed for protocol-level checks)?
  [[nodiscard]] bool isOnline(NodeIndex n) const { return online_(n); }

  /// Rough wire sizes used for accounting; 20 B per membership entry per
  /// the paper's overhead estimate, plus small headers.
  static constexpr std::size_t kDefaultMessageBytes = 64;
  static constexpr std::size_t kAckBytes = 16;
  static constexpr std::size_t kMembershipEntryBytes = 20;

 private:
  /// The typed batched-message lane (net/shuffle_channel.hpp) shares this
  /// network's latency model, online oracle, and stats so both paths
  /// account identically.
  friend class ShuffleChannel;
  /// AVMON's epoch-batched ping lane bills into the same stats and
  /// consults the same fault injector (serial commit context only).
  friend class ::avmem::avmon::AvmonSystem;

  void scheduleDelivery(NodeIndex dst, DeliveryFn fn, sim::SimDuration lat) {
    sim_.schedule(lat, [this, dst, fn = std::move(fn)] {
      if (!online_(dst)) {
        ++stats_.droppedOffline;
        return;
      }
      ++stats_.delivered;
      fn(sim_.now());
    });
  }

  void scheduleAckedDelivery(NodeIndex dst, NodeIndex src,
                             AckedDeliveryFn fnDeliver,
                             std::function<void()> fnAck,
                             std::shared_ptr<bool> settled,
                             sim::SimDuration lat) {
    sim_.schedule(lat, [this, dst, src, settled = std::move(settled),
                        fnDeliver = std::move(fnDeliver),
                        fnAck = std::move(fnAck)]() mutable {
      if (!online_(dst)) {
        ++stats_.droppedOffline;
        return;  // no ack will ever come; the timeout will fire
      }
      ++stats_.delivered;
      if (!fnDeliver(sim_.now())) {
        ++stats_.rejected;
        return;  // receiver rejected: no ack; the timeout will fire
      }
      // Ack travels back with an independent latency sample.
      ++stats_.acksSent;
      stats_.bytesSent += kAckBytes;
      sim::SimDuration back = latency_->sample(rng_);
      if (fault_ != nullptr) {
        const fault::WireVerdict v = fault_->onWire(
            fault::WireKind::kAck, dst, src, sim_.now().toMicros());
        if (v.drop) {
          ++stats_.injectedDrops;
          return;  // ack lost: the sender times out despite acceptance
        }
        if (v.duplicate) {
          ++stats_.duplicated;
          sim_.schedule(
              back + sim::SimDuration::micros(v.duplicateDelayUs),
              [settled, fnAck] {
                if (*settled) return;
                *settled = true;
                fnAck();
              });
        }
        back += sim::SimDuration::micros(v.extraDelayUs);
      }
      sim_.schedule(back, [settled, fnAck = std::move(fnAck)] {
        if (*settled) return;
        *settled = true;
        fnAck();
      });
    });
  }

  sim::Simulator& sim_;
  OnlineOracle online_;
  std::unique_ptr<LatencyModel> latency_;
  sim::Rng rng_;
  NetworkStats stats_;
  fault::FaultInjector* fault_ = nullptr;
};

}  // namespace avmem::net
