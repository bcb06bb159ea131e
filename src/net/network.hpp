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
// latency model, online gate, fault consult and stats but allocates no
// closures per message (see that header). AVMON's monitor pings bill
// through the same fault consult and stats.
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

  /// Fire-and-forget datagram from `src` to `dst`. `onDeliver` runs only
  /// if `dst` is online at the delivery instant. `approxBytes` feeds the
  /// bandwidth accounting; `src` feeds the fault injector's region scope.
  void send(NodeIndex src, NodeIndex dst, DeliveryFn onDeliver,
            std::size_t approxBytes = kDefaultMessageBytes) {
    ++stats_.sent;
    stats_.bytesSent += approxBytes;
    const sim::SimDuration lat = latency_->sample(rng_);
    const fault::WireVerdict v = fate(fault::WireKind::kDatagram, src, dst);
    if (v.drop) return;  // vanished on the wire; nothing is ever delivered
    if (v.duplicate) {
      scheduleDelivery(dst, onDeliver,
                       lat + sim::SimDuration::micros(v.duplicateDelayUs));
    }
    scheduleDelivery(dst, std::move(onDeliver),
                     lat + sim::SimDuration::micros(v.extraDelayUs));
  }

  /// Called at the delivery instant; returns whether the receiver accepts
  /// the message (an ack is sent only on acceptance, so a rejecting
  /// receiver looks exactly like an offline one to the sender).
  using AckedDeliveryFn = std::function<bool(sim::SimTime)>;

  /// Request/ack exchange from `src` to `dst`: if `dst` is online and
  /// `onDeliver` returns true, an ack travels back (one more latency
  /// sample) and settles the exchange. If no ack arrives within
  /// `timeout`, `onTimeout` runs instead; it never runs after an ack.
  void sendWithAck(NodeIndex src, NodeIndex dst, AckedDeliveryFn onDeliver,
                   std::function<void()> onTimeout, sim::SimDuration timeout,
                   std::size_t approxBytes = kDefaultMessageBytes) {
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

    const sim::SimDuration lat = latency_->sample(rng_);
    const fault::WireVerdict v =
        fate(fault::WireKind::kAckRequest, src, dst);
    if (v.drop) return;  // request lost: the timeout (already armed) fires
    if (v.duplicate) {
      // Both copies are full request deliveries: the receiver sees the
      // message twice and each acceptance acks independently (the
      // settled flag makes the second ack a no-op at the sender).
      scheduleAckedDelivery(
          src, dst, onDeliver, settled,
          lat + sim::SimDuration::micros(v.duplicateDelayUs));
    }
    scheduleAckedDelivery(src, dst, std::move(onDeliver), std::move(settled),
                          lat + sim::SimDuration::micros(v.extraDelayUs));
  }

  [[nodiscard]] const NetworkStats& stats() const noexcept { return stats_; }
  void resetStats() noexcept { stats_ = NetworkStats{}; }

  /// Install (or clear) the fault injector every wire lane consults
  /// through fate(). When null — the default — the wire path is
  /// byte-identical to a build without fault/ in the picture: no extra
  /// randomness is drawn and no schedule changes.
  void setFaultInjector(fault::FaultInjector* injector) noexcept {
    fault_ = injector;
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
  /// network's latency model, fault consult, online gate and stats so
  /// both paths account identically.
  friend class ShuffleChannel;
  /// AVMON's epoch-batched ping lane bills into the same stats through
  /// the same fault consult (serial commit context only).
  friend class ::avmem::avmon::AvmonSystem;

  /// The one fault consult of every wire lane, made when a message
  /// leaves `src` for `dst`. Without an injector the verdict is empty and
  /// nothing is drawn; otherwise injected drops and duplicates are
  /// counted here, once, whatever the lane.
  [[nodiscard]] fault::WireVerdict fate(fault::WireKind kind, NodeIndex src,
                                        NodeIndex dst) {
    if (fault_ == nullptr) return {};
    const fault::WireVerdict v =
        fault_->onWire(kind, src, dst, sim_.now().toMicros());
    if (v.drop) ++stats_.injectedDrops;
    if (v.duplicate) ++stats_.duplicated;
    return v;
  }

  /// The one online gate of every lane, taken at the delivery instant:
  /// true (counted delivered) iff `dst` is online, else counted
  /// droppedOffline — silence, exactly like a datagram to a dead host.
  [[nodiscard]] bool arrives(NodeIndex dst) {
    if (!online_(dst)) {
      ++stats_.droppedOffline;
      return false;
    }
    ++stats_.delivered;
    return true;
  }

  void scheduleDelivery(NodeIndex dst, DeliveryFn fn, sim::SimDuration lat) {
    sim_.schedule(lat, [this, dst, fn = std::move(fn)] {
      if (arrives(dst)) fn(sim_.now());
    });
  }

  void scheduleAckedDelivery(NodeIndex src, NodeIndex dst,
                             AckedDeliveryFn fnDeliver,
                             std::shared_ptr<bool> settled,
                             sim::SimDuration lat) {
    sim_.schedule(lat, [this, src, dst, settled = std::move(settled),
                        fnDeliver = std::move(fnDeliver)] {
      if (!arrives(dst)) return;  // no ack will ever come; the timeout fires
      if (!fnDeliver(sim_.now())) {
        ++stats_.rejected;
        return;  // receiver rejected: no ack; the timeout will fire
      }
      // Ack travels back with an independent latency sample.
      ++stats_.acksSent;
      stats_.bytesSent += kAckBytes;
      const sim::SimDuration back = latency_->sample(rng_);
      const fault::WireVerdict v = fate(fault::WireKind::kAck, dst, src);
      if (v.drop) return;  // ack lost: the sender times out despite acceptance
      // An ack's arrival only settles the exchange; a duplicate settles
      // nothing new but is still an event on the wire.
      const auto settle = [settled] { *settled = true; };
      if (v.duplicate) {
        sim_.schedule(back + sim::SimDuration::micros(v.duplicateDelayUs),
                      settle);
      }
      sim_.schedule(back + sim::SimDuration::micros(v.extraDelayUs), settle);
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
