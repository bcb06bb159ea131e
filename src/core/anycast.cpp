#include "core/anycast.hpp"

#include <algorithm>
#include <cmath>

namespace avmem::core {

using net::NodeIndex;

/// Shared per-operation state, owned by the in-flight closures.
struct AnycastEngine::Operation {
  AnycastParams params;
  CompletionFn done;
  sim::SimTime startedAt;
  bool settled = false;
  sim::EventHandle watchdog;
};

void AnycastEngine::start(NodeIndex initiator, const AnycastParams& params,
                          CompletionFn done) {
  auto op = std::make_shared<Operation>();
  op->params = params;
  op->done = std::move(done);
  op->startedAt = sim_.now();

  // Watchdog: fire-and-forget hops can die silently (offline or rejecting
  // next hop); bound the operation's lifetime generously past the worst
  // case: (ttl+1) hops x (ack timeout + 2x max plausible hop latency).
  const auto bound = sim::SimDuration::millis(
      static_cast<std::int64_t>(params.ttl + 2) *
      (params.ackTimeout.toMicros() / 1000 + 200) *
      std::max(1, params.retryBudget) *
      (1 + std::max(0, params.lossRetries)));
  op->watchdog = sim_.schedule(bound, [this, op] {
    settle(op, AnycastOutcome::kDropped, /*hops=*/-1);
  });

  if (!network_.isOnline(initiator)) {
    settle(op, AnycastOutcome::kInitiatorOffline, 0);
    return;
  }
  arriveAt(op, initiator, params.ttl, /*hops=*/0);
}

void AnycastEngine::settle(std::shared_ptr<Operation> op,
                           AnycastOutcome outcome, int hops,
                           NodeIndex deliveredTo) {
  if (op->settled) return;
  op->settled = true;
  op->watchdog.cancel();
  AnycastResult result;
  result.outcome = outcome;
  // The watchdog's hops = -1 sentinel survives into the result: clamping
  // it to 0 made watchdog-settled kDropped operations look like 0-hop
  // deliveries to any hop aggregation.
  result.hops = hops;
  result.latency = sim_.now() - op->startedAt;
  result.deliveredTo = deliveredTo;
  op->done(result);
}

void AnycastEngine::arriveAt(std::shared_ptr<Operation> op, NodeIndex node,
                             int ttl, int hops) {
  if (op->settled) return;
  AvmemNode& self = nodes_[node];
  // A node that just came back online may hold a stale self-estimate from
  // before it left; it consults the monitoring service for its own
  // availability when processing a message (cheap — it is its own query).
  self.updateSelfAvailability();

  // "A node x receiving an anycast message checks to see if it itself lies
  // within range R - if yes, then the anycast is successful."
  if (op->params.range.contains(self.selfAvailability())) {
    settle(op, AnycastOutcome::kDelivered, hops, node);
    return;
  }
  // "Each anycast has a TTL that is decremented by 1 at each virtual hop.
  // If this TTL value is 0 the message is not forwarded."
  if (ttl <= 0) {
    settle(op, AnycastOutcome::kTtlExpired, hops);
    return;
  }
  forwardFrom(op, node, ttl, hops);
}

std::vector<NeighborEntry> AnycastEngine::rankedCandidates(
    NodeIndex node, const AnycastParams& params) {
  // Forwarding uses cached availabilities "fetched the last time the
  // refresh operation was done" — never a fresh monitoring query per
  // message (paper Section 3.2).
  auto candidates = nodes_[node].neighbors(params.slivers);
  // Random tie-break among equal-distance candidates (all in-range
  // neighbors tie at 0): a deterministic tie-break would funnel every
  // operation through one favorite neighbor, and a single offline
  // favorite would black-hole all greedy traffic from this node.
  rng_.shuffle(candidates);
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&params](const NeighborEntry& a, const NeighborEntry& b) {
                     return params.range.distance(a.cachedAv) <
                            params.range.distance(b.cachedAv);
                   });
  return candidates;
}

void AnycastEngine::forwardFrom(std::shared_ptr<Operation> op, NodeIndex node,
                                int ttl, int hops) {
  auto candidates = rankedCandidates(node, op->params);
  if (candidates.empty()) {
    settle(op, AnycastOutcome::kNoNeighbor, hops);
    return;
  }

  switch (op->params.strategy) {
    case AnycastStrategy::kGreedy: {
      // "Node x forwards the multicast to an AVMEM neighbor that lies
      // inside R. If there is no such neighbor, x selects as the next hop
      // the neighbor whose availability is closest to R."
      const NodeIndex next = candidates.front().peer;
      network_.send(node, next,
                    [this, op, node, next, ttl, hops](sim::SimTime) {
                      // Receiver-side verification: a rejecting receiver
                      // silently kills a fire-and-forget anycast (the
                      // watchdog reports kDropped).
                      if (!nodes_[next].verifyIncoming(node)) return;
                      arriveAt(op, next, ttl - 1, hops + 1);
                    });
      break;
    }

    case AnycastStrategy::kRetriedGreedy: {
      tryCandidates(op, node, std::move(candidates), /*next=*/0,
                    op->params.retryBudget, op->params.lossRetries, ttl,
                    hops);
      break;
    }

    case AnycastStrategy::kSimulatedAnnealing: {
      // "p = e^{-delta/ttl} ... At each hop, a random next-hop can be
      // selected (from among the AVMEM neighbors) with probability p, as
      // the list of neighbors is traversed, otherwise the greedy approach
      // is used (with probability 1-p)."
      //
      // The list is traversed in greedy (best-first) order: an in-range
      // candidate has delta = 0, hence p = 1, and is taken immediately —
      // annealing deviates from greedy only when the best candidates are
      // far from the range (early hops, large remaining TTL), which is
      // exactly the exploration the technique intends.
      NodeIndex chosen = candidates.front().peer;  // greedy fallback
      for (const NeighborEntry& cand : candidates) {
        const double delta = op->params.range.distance(cand.cachedAv);
        const double p = std::exp(-delta / static_cast<double>(ttl));
        if (rng_.chance(p)) {
          chosen = cand.peer;
          break;
        }
      }
      network_.send(node, chosen,
                    [this, op, node, chosen, ttl, hops](sim::SimTime) {
                      if (!nodes_[chosen].verifyIncoming(node)) return;
                      arriveAt(op, chosen, ttl - 1, hops + 1);
                    });
      break;
    }
  }
}

void AnycastEngine::tryCandidates(std::shared_ptr<Operation> op,
                                  NodeIndex node,
                                  std::vector<NeighborEntry> candidates,
                                  std::size_t next, int budget,
                                  int resendsLeft, int ttl, int hops) {
  if (op->settled) return;
  // "The retrying stops when either retry reaches 0, or there are no more
  // next-best nodes left in the AVMEM neighbor list of node x."
  if (budget <= 0) {
    settle(op, AnycastOutcome::kRetryExpired, hops);
    return;
  }
  if (next >= candidates.size()) {
    settle(op, AnycastOutcome::kNoNeighbor, hops);
    return;
  }

  const NodeIndex target = candidates[next].peer;
  network_.sendWithAck(
      node, target,
      // Receiver side: verify the sender is a legitimate in-neighbor; a
      // rejection suppresses the ack, so the sender's timeout fires and it
      // moves to its next-best candidate.
      [this, op, node, target, ttl, hops](sim::SimTime) -> bool {
        if (!nodes_[target].verifyIncoming(node)) return false;
        arriveAt(op, target, ttl - 1, hops + 1);
        return true;
      },
      /*onTimeout=*/
      [this, op, node, candidates = std::move(candidates), next, budget,
       resendsLeft, ttl, hops]() mutable {
        if (resendsLeft > 0) {
          // Loss hardening: the silence may be a lost message, not a
          // dead neighbor — give the same candidate another chance
          // before condemning it (lossRetries > 0 only under a fault
          // campaign; the default never takes this branch).
          tryCandidates(op, node, std::move(candidates), next, budget,
                        resendsLeft - 1, ttl, hops);
          return;
        }
        // Unresponsive (offline or rejecting): drop it from our lists and
        // retry the next-best neighbor.
        nodes_[node].evictNeighbor(candidates[next].peer);
        tryCandidates(op, node, std::move(candidates), next + 1, budget - 1,
                      op->params.lossRetries, ttl, hops);
      },
      op->params.ackTimeout);
}

}  // namespace avmem::core
