// {Threshold, Range}-Multicast over the AVMEM overlay (paper Section 3.2).
//
// Two-stage process: an anycast carries the message *into* the target
// range R; once a node with av ∈ R holds it, dissemination proceeds within
// the range by either
//
//  * Flooding — forward once to every neighbor whose cached availability
//    lies in R (duplicates ignored); highly reliable, bandwidth-heavy; or
//  * Gossip — every `gossipPeriod` forward to up to `fanout` in-range
//    neighbors not yet sent to (deterministic iteration through the list),
//    for `rounds` periods, sized so fanout x rounds = log(N*) for w.h.p.
//    dissemination.
//
// Receivers verify the sender's in-neighbor claim before accepting.
// Metrics follow the paper's definitions: reliability = delivered in-range
// nodes / online in-range nodes ("could have been delivered"); spam ratio =
// out-of-range accepting receivers / online in-range nodes; latency = time
// of the last in-range delivery.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/anycast.hpp"
#include "core/avmem_node.hpp"
#include "core/config.hpp"
#include "core/range.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"

namespace avmem::core {

/// Multicast tuning; gossip defaults are the paper's Figure 11 settings
/// (fanout = 5, Ng = 2, 1 s gossip period).
struct MulticastParams {
  AvRange range;
  MulticastMode mode = MulticastMode::kFlood;
  SliverSet slivers = SliverSet::kHsAndVs;
  int fanout = 5;
  int rounds = 2;
  sim::SimDuration gossipPeriod = sim::SimDuration::seconds(1);
  /// The entry anycast (stage 1); its range is overwritten with `range`.
  /// Retried-greedy by default — a silent drop here would kill the whole
  /// multicast.
  AnycastParams entryAnycast{
      .range = {},
      .strategy = AnycastStrategy::kRetriedGreedy,
      .slivers = SliverSet::kHsAndVs,
  };
};

/// Result of one multicast, computed at finalize time.
struct MulticastResult {
  bool reachedRange = false;  ///< stage-1 anycast found an in-range node
  /// Ground-truth online in-range population at launch ("could have been
  /// delivered").
  std::size_t eligible = 0;
  /// Eligible nodes that accepted the message.
  std::size_t delivered = 0;
  /// Out-of-range nodes that accepted the message (spam).
  std::size_t spam = 0;
  /// Launch -> last in-range delivery.
  sim::SimDuration lastDeliveryLatency;
  /// Per-delivery latencies (in-range accepts only).
  std::vector<sim::SimDuration> deliveryLatencies;
  /// The in-range nodes that accepted the message (parallel to nothing;
  /// unordered). Lets applications aggregate per-receiver state.
  std::vector<net::NodeIndex> deliveredNodes;

  [[nodiscard]] double reliability() const noexcept {
    return eligible == 0 ? 0.0
                         : static_cast<double>(delivered) /
                               static_cast<double>(eligible);
  }
  [[nodiscard]] double spamRatio() const noexcept {
    return eligible == 0 ? 0.0
                         : static_cast<double>(spam) /
                               static_cast<double>(eligible);
  }
};

/// Runs multicast operations over a population of AvmemNodes.
///
/// Usage: `launch` one or more multicasts, advance the simulator past
/// their dissemination horizon, then `finalize` each handle.
class MulticastEngine {
 public:
  /// Handle identifying an in-flight multicast.
  using Handle = std::uint64_t;

  /// `groundTruthAv(n)` must return node n's true availability (used only
  /// for metric classification, never for protocol decisions).
  MulticastEngine(sim::Simulator& sim, net::Network& network,
                  std::vector<AvmemNode>& nodes, AnycastEngine& anycast,
                  std::function<double(net::NodeIndex)> groundTruthAv,
                  sim::Rng rng)
      : sim_(sim),
        network_(network),
        nodes_(nodes),
        anycast_(anycast),
        groundTruthAv_(std::move(groundTruthAv)),
        rng_(rng) {}

  MulticastEngine(const MulticastEngine&) = delete;
  MulticastEngine& operator=(const MulticastEngine&) = delete;

  /// Launch a multicast from `initiator`. The eligible set is snapshotted
  /// immediately (online nodes whose ground-truth availability is in R).
  Handle launch(net::NodeIndex initiator, const MulticastParams& params);

  /// Upper bound on the dissemination time of `params`, for callers
  /// deciding how far to advance the simulator before finalizing.
  [[nodiscard]] static sim::SimDuration horizon(const MulticastParams& params);

  /// Collect the result; the multicast's state is released.
  [[nodiscard]] MulticastResult finalize(Handle handle);

 private:
  struct Delivery {
    sim::SimTime at;
    bool inRange = false;  // ground truth
  };

  struct Operation {
    MulticastParams params;
    sim::SimTime startedAt;
    bool reachedRange = false;
    std::size_t eligible = 0;
    /// node -> delivery record (presence = accepted the message once).
    // detlint: allow(unordered-state) dedup membership + point queries; finalize() copies into a node-sorted vector before any order-sensitive use
    std::unordered_map<net::NodeIndex, Delivery> deliveries;
    /// Gossip tasks kept alive for the operation's duration.
    std::vector<std::shared_ptr<sim::PeriodicTask>> gossipTasks;
  };

  /// Message arrival at `node` from `sender` (or from the anycast stage
  /// when `sender == node`, which skips verification).
  void receiveAt(std::shared_ptr<Operation> op, net::NodeIndex sender,
                 net::NodeIndex node);
  void floodFrom(std::shared_ptr<Operation> op, net::NodeIndex node);
  void gossipFrom(std::shared_ptr<Operation> op, net::NodeIndex node);

  sim::Simulator& sim_;
  net::Network& network_;
  std::vector<AvmemNode>& nodes_;
  AnycastEngine& anycast_;
  std::function<double(net::NodeIndex)> groundTruthAv_;
  sim::Rng rng_;
  Handle nextHandle_ = 1;
  // detlint: allow(unordered-state) keyed find/emplace/erase by handle only; never iterated, ordering cannot escape
  std::unordered_map<Handle, std::shared_ptr<Operation>> operations_;
};

}  // namespace avmem::core
