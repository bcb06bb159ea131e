// {Threshold, Range}-Anycast over the AVMEM overlay (paper Section 3.2).
//
// Three forwarding strategies — greedy, retried-greedy, simulated
// annealing — each usable with HS-only, VS-only, or HS+VS neighbor sets
// (nine algorithms). A node holding the anycast delivers it if its own
// availability lies in the target range; otherwise it forwards using
// *cached* neighbor availabilities, decrementing a TTL per virtual hop.
//
// Failure semantics:
//  * greedy / annealing forward fire-and-forget; a hop landing on an
//    offline or rejecting node silently kills the message (reported as
//    kDropped via a watchdog);
//  * retried-greedy requires an ack per hop and retries the next-best
//    neighbor up to `retryBudget` times per hop (paper: "each forwarded
//    message carries the value of retry = k").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/avmem_node.hpp"
#include "core/config.hpp"
#include "core/range.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace avmem::core {

/// Anycast tuning; defaults match the paper's experiments (TTL = 6,
/// retry plateau at 8, hop latency U[20,80] ms with a 300 ms ack timeout).
struct AnycastParams {
  AvRange range;
  AnycastStrategy strategy = AnycastStrategy::kGreedy;
  SliverSet slivers = SliverSet::kHsAndVs;
  int ttl = 6;
  int retryBudget = 8;
  sim::SimDuration ackTimeout = sim::SimDuration::millis(300);
  /// Loss hardening for retried-greedy: re-send to the SAME candidate up
  /// to this many times after an ack timeout before evicting it and
  /// moving on. Under paper semantics (no injected loss) a timeout means
  /// the neighbor is offline or rejecting, so the default is 0 — evict
  /// immediately, exactly the original behavior. Under a fault campaign
  /// (sustained 30% loss), evict-on-first-timeout destroys healthy
  /// neighbor lists; chaos measurement code passes 1-2 here. Re-sends do
  /// not consume `retryBudget` (which counts candidate advances).
  int lossRetries = 0;
};

/// Terminal states of one anycast.
enum class AnycastOutcome : std::uint8_t {
  kDelivered,
  kTtlExpired,
  kRetryExpired,      ///< retried-greedy exhausted its per-hop budget
  kNoNeighbor,        ///< a hop had no usable next-hop candidate
  kDropped,           ///< fire-and-forget hop landed on a dead/rejecting node
  kInitiatorOffline,  ///< the initiator was offline at start
};

[[nodiscard]] constexpr const char* toString(AnycastOutcome o) noexcept {
  switch (o) {
    case AnycastOutcome::kDelivered:
      return "delivered";
    case AnycastOutcome::kTtlExpired:
      return "ttl-expired";
    case AnycastOutcome::kRetryExpired:
      return "retry-expired";
    case AnycastOutcome::kNoNeighbor:
      return "no-neighbor";
    case AnycastOutcome::kDropped:
      return "dropped";
    case AnycastOutcome::kInitiatorOffline:
      return "initiator-offline";
  }
  return "?";
}

/// Result of one anycast operation.
struct AnycastResult {
  AnycastOutcome outcome = AnycastOutcome::kDropped;
  /// Virtual hops traveled; -1 when unknown (the watchdog settled a
  /// kDropped operation that died silently in flight, so no hop count
  /// reached the engine). Hop statistics must filter on `outcome ==
  /// kDelivered` — a clamped 0 here once made dropped operations
  /// indistinguishable from 0-hop deliveries.
  int hops = 0;
  sim::SimDuration latency;        ///< start -> terminal event
  net::NodeIndex deliveredTo = 0;  ///< valid when outcome == kDelivered
};

/// Runs anycast operations over a population of AvmemNodes.
class AnycastEngine {
 public:
  using CompletionFn = std::function<void(const AnycastResult&)>;

  AnycastEngine(sim::Simulator& sim, net::Network& network,
                std::vector<AvmemNode>& nodes, sim::Rng rng)
      : sim_(sim), network_(network), nodes_(nodes), rng_(rng) {}

  AnycastEngine(const AnycastEngine&) = delete;
  AnycastEngine& operator=(const AnycastEngine&) = delete;

  /// Launch an anycast from `initiator`; `done` fires exactly once at the
  /// terminal event. Multiple operations may be in flight concurrently.
  void start(net::NodeIndex initiator, const AnycastParams& params,
             CompletionFn done);

 private:
  struct Operation;

  void arriveAt(std::shared_ptr<Operation> op, net::NodeIndex node, int ttl,
                int hops);
  void forwardFrom(std::shared_ptr<Operation> op, net::NodeIndex node,
                   int ttl, int hops);
  /// Candidates for the next hop, best-first under the greedy metric with
  /// random tie-breaks (mutates the engine RNG).
  [[nodiscard]] std::vector<NeighborEntry> rankedCandidates(
      net::NodeIndex node, const AnycastParams& params);
  void settle(std::shared_ptr<Operation> op, AnycastOutcome outcome,
              int hops, net::NodeIndex deliveredTo = 0);
  void tryCandidates(std::shared_ptr<Operation> op, net::NodeIndex node,
                     std::vector<NeighborEntry> candidates, std::size_t next,
                     int budget, int resendsLeft, int ttl, int hops);

  sim::Simulator& sim_;
  net::Network& network_;
  std::vector<AvmemNode>& nodes_;
  sim::Rng rng_;
};

}  // namespace avmem::core
