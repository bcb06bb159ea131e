#include "core/multicast.hpp"

#include <algorithm>

namespace avmem::core {

using net::NodeIndex;

/// Shared per-operation state, owned by the handle and the in-flight
/// closures.
struct MulticastEngine::Operation {
  /// One node's acceptance of the message.
  struct Delivery {
    sim::SimTime at;
    bool accepted = false;
    bool inRange = false;  // ground truth
  };

  MulticastParams params;
  sim::SimTime startedAt;
  bool reachedRange = false;
  std::size_t eligible = 0;
  /// Indexed by node; a node accepts the message at most once.
  std::vector<Delivery> deliveries;
  /// The operation's gossip tasks. The operation owns them and their
  /// closures hold it only weakly, so releasing an operation frees its
  /// tasks, and a task frees its closure once it stops.
  std::vector<std::unique_ptr<sim::PeriodicTask>> gossipTasks;
};

MulticastEngine::Handle MulticastEngine::launch(
    NodeIndex initiator, const MulticastParams& params) {
  auto op = std::make_shared<Operation>();
  op->params = params;
  op->params.entryAnycast.range = params.range;
  op->startedAt = sim_.now();
  op->deliveries.resize(nodes_.size());

  // Ground-truth eligible set: online nodes whose true availability lies
  // in R at launch ("number could have been delivered", Figures 12-13).
  const auto n = static_cast<NodeIndex>(nodes_.size());
  for (NodeIndex i = 0; i < n; ++i) {
    if (network_.isOnline(i) &&
        params.range.contains(oracle_.availability(i))) {
      ++op->eligible;
    }
  }

  if (network_.isOnline(initiator) &&
      params.range.contains(nodes_[initiator].selfAvailability())) {
    // Initiator already in range: dissemination starts here.
    receiveAt(op, initiator, initiator);
    return op;
  }

  // Stage 1: anycast into the range.
  anycast_.start(initiator, op->params.entryAnycast,
                 [this, op](const AnycastResult& r) {
                   if (r.outcome != AnycastOutcome::kDelivered) return;
                   receiveAt(op, r.deliveredTo, r.deliveredTo);
                 });
  return op;
}

sim::SimDuration MulticastEngine::horizon(const MulticastParams& params) {
  // Entry anycast worst case + dissemination depth. Flooding completes in
  // O(diameter) hops of <=80 ms; gossip takes rounds x period per relay
  // generation. 30 s of flood slack / rounds x period x log2(N)-ish depth
  // is far beyond anything observed, and simulated idle time is cheap.
  const auto anycastBound = sim::SimDuration::seconds(10);
  if (params.mode == MulticastMode::kFlood) {
    return anycastBound + sim::SimDuration::seconds(30);
  }
  return anycastBound +
         params.gossipPeriod * static_cast<std::int64_t>(
                                   (params.rounds + 1) * 24) +
         sim::SimDuration::seconds(30);
}

MulticastResult MulticastEngine::finalize(const Handle& op) {
  MulticastResult result;
  result.reachedRange = op->reachedRange;
  result.eligible = op->eligible;
  sim::SimDuration last = sim::SimDuration::zero();
  const auto n = static_cast<NodeIndex>(op->deliveries.size());
  for (NodeIndex node = 0; node < n; ++node) {
    const Operation::Delivery& d = op->deliveries[node];
    if (!d.accepted) continue;
    if (d.inRange) {
      ++result.delivered;
      result.deliveredNodes.push_back(node);
      const auto latency = d.at - op->startedAt;
      result.deliveryLatencies.push_back(latency);
      last = std::max(last, latency);
    } else {
      ++result.spam;
    }
  }
  result.lastDeliveryLatency = last;

  for (auto& task : op->gossipTasks) task->stop();
  return result;
}

void MulticastEngine::receiveAt(std::shared_ptr<Operation> op,
                                NodeIndex sender, NodeIndex node) {
  // "Any duplicate copies of the multicast are ignored."
  Operation::Delivery& d = op->deliveries[node];
  if (d.accepted) return;

  // Refresh the receiver's self-estimate (see AnycastEngine::arriveAt).
  nodes_[node].updateSelfAvailability();

  // Receiver-side verification (skipped at the dissemination entry point,
  // where the anycast stage already verified hop-by-hop).
  if (sender != node && !nodes_[node].verifyIncoming(sender)) return;

  d.at = sim_.now();
  d.accepted = true;
  d.inRange = op->params.range.contains(oracle_.availability(node));
  op->reachedRange = op->reachedRange || d.inRange;

  // A node whose own (service-reported) availability is outside R is spam;
  // it accepts but does not forward.
  if (!op->params.range.contains(nodes_[node].selfAvailability())) return;

  if (op->params.mode == MulticastMode::kFlood) {
    floodFrom(op, node);
  } else {
    gossipFrom(op, node);
  }
}

void MulticastEngine::floodFrom(std::shared_ptr<Operation> op,
                                NodeIndex node) {
  // "Node x forwards the multicast to all its AVMEM neighbors that lie in
  // range R ... the forwarding is done only once."
  for (const NeighborEntry& e : nodes_[node].neighbors(op->params.slivers)) {
    if (!op->params.range.contains(e.cachedAv)) continue;
    const NodeIndex peer = e.peer;
    network_.send(node, peer, [this, op, node, peer](sim::SimTime) {
      receiveAt(op, node, peer);
    });
  }
}

void MulticastEngine::gossipFrom(std::shared_ptr<Operation> op,
                                 NodeIndex node) {
  // "Once every protocol period ... selects up to fanout of its AVMEM
  // neighbors: (1) whose availabilities lie within the range R, and (2) to
  // whom x has not already forwarded M ... for our implementation we use a
  // deterministic iteration through the list ... repeats the above process
  // for Ng protocol periods."
  op->gossipTasks.push_back(std::make_unique<sim::PeriodicTask>());
  sim::PeriodicTask* task = op->gossipTasks.back().get();
  task->start(
      sim_, sim_.now(), op->params.gossipPeriod,
      [this, weakOp = std::weak_ptr<Operation>(op), node, task,
       sentTo = std::vector<NodeIndex>{},
       roundsLeft = op->params.rounds]() mutable {
        if (roundsLeft <= 0) {
          task->stop();
          return;
        }
        --roundsLeft;
        if (!network_.isOnline(node)) return;  // skip rounds while offline
        // The operation owns this task, so it is alive while the task runs.
        const std::shared_ptr<Operation> op = weakOp.lock();

        int sentThisRound = 0;
        for (const NeighborEntry& e :
             nodes_[node].neighbors(op->params.slivers)) {
          if (sentThisRound >= op->params.fanout) break;
          if (!op->params.range.contains(e.cachedAv)) continue;
          if (std::find(sentTo.begin(), sentTo.end(), e.peer) !=
              sentTo.end()) {
            continue;
          }
          sentTo.push_back(e.peer);
          ++sentThisRound;
          const NodeIndex peer = e.peer;
          network_.send(node, peer, [this, op, node, peer](sim::SimTime) {
            receiveAt(op, node, peer);
          });
        }
      });
}

}  // namespace avmem::core
