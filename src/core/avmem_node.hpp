// Per-node AVMEM protocol state: the slivers, the Discovery and Refresh
// sub-protocols (paper Section 3.1), and receiver-side verification of
// incoming messages (the non-cooperation defense of Section 4.1).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "avmon/availability_service.hpp"
#include "core/config.hpp"
#include "core/membership.hpp"
#include "core/node_id.hpp"
#include "core/predicates.hpp"
#include "hash/pair_hash.hpp"
#include "sim/simulator.hpp"

namespace avmem::core {

/// Everything a node's protocol logic needs from its environment; owned by
/// the simulation harness, shared by reference across all nodes. Every
/// member is read-only to a node: a node can read the clock and query
/// the monitoring service, but cannot schedule an event or mutate the
/// service, so a plan phase holding the context cannot touch shared state.
struct ProtocolContext {
  const sim::Simulator& sim;
  const avmon::AvailabilityService& availability;
  const AvmemPredicate& predicate;
  const std::vector<NodeId>& ids;
  hashing::PairHasher pairHash;
  ProtocolConfig config;
  /// Precomputed fast64 absorb tails of every id (idTails[i] =
  /// fast64Tail6(ids[i])), filled by the simulation harness when the pair
  /// hash is kFast64 and left empty otherwise. Plan-phase batch kernels
  /// key off batchHashReady(): when set, hashOf(a, b) ==
  /// Fast64PairBatch(pairHash.seed(), idTails[a]).one(idTails[b]) bit for
  /// bit (tests/hash/fast64_batch_test.cpp), so the hot scans hash whole
  /// candidate spans in two mixes per pair instead of dispatching through
  /// the general absorb path.
  std::vector<std::uint64_t> idTails{};

  /// H(id(a), id(b)): a pure function, safe from any plan thread.
  [[nodiscard]] double hashOf(NodeIndex a, NodeIndex b) const {
    return pairHash(ids[a].bytes(), ids[b].bytes());
  }

  /// True when the batched kFast64 lane may replace hashOf().
  [[nodiscard]] bool batchHashReady() const noexcept {
    return !idTails.empty();
  }
};

/// The product of one maintenance round's read-only *plan* phase, applied
/// by the serial *commit* phase (see MembershipEngine: plans for a whole
/// scheduler slot may run concurrently, commits always run in slot order).
/// A plan captures everything the round observed — the self-availability
/// answer, the per-peer predicate evaluations, and how many service
/// queries it made — so committing it applies exactly what the round
/// observed, at any thread count.
struct MaintenancePlan {
  /// Was the node online when the round fired (engine-filled; offline
  /// rounds plan nothing and commit only the skip counter)?
  bool online = false;
  /// Service queries the plan phase issued (folded into NodeStats at
  /// commit so counters stay identical to the serial path).
  std::uint64_t availabilityQueries = 0;
  /// Fresh self-availability answer; nullopt when the service had none
  /// (the node then keeps its previous estimate).
  std::optional<double> selfAv;

  /// One planned peer evaluation.
  struct PeerEval {
    NodeIndex peer = 0;
    bool known = false;   ///< the service had an estimate for the peer
    bool member = false;  ///< M(self, peer) held
    SliverKind kind = SliverKind::kVertical;
    double av = 0.0;
  };
  /// Discovery: admitted peers only. Refresh: every current neighbor —
  /// HS entries first (in list order), then VS entries, with
  /// `hsEvalCount` marking the boundary so the commit pass can address
  /// each entry's eval by index instead of searching. Adopt (coarse-view
  /// overlay): every view peer with an estimate.
  std::vector<PeerEval> evals;
  std::size_t hsEvalCount = 0;  ///< refresh only: evals[0, hsEvalCount) = HS

  /// Scratch for the batched plan kernels (gathered hash tails, hashes,
  /// availabilities, classifications, membership bits over a contiguous
  /// candidate span). Lane-private like the plan itself; resized before
  /// every use, so reset() leaves them alone and their capacity survives
  /// across firings.
  std::vector<std::uint64_t> tailScratch;
  std::vector<double> hashScratch;
  std::vector<double> avScratch;
  std::vector<std::uint8_t> knownScratch;
  std::vector<SliverKind> kindScratch;
  std::vector<std::uint8_t> memberScratch;

  /// Ready the plan for reuse; keeps the evals capacity (the engine
  /// recycles lane buffers across slots to avoid allocation churn).
  void reset() noexcept {
    online = false;
    availabilityQueries = 0;
    selfAv.reset();
    evals.clear();
    hsEvalCount = 0;
  }
};

/// Per-node protocol counters.
struct NodeStats {
  std::uint64_t discoveryRounds = 0;
  std::uint64_t refreshRounds = 0;
  std::uint64_t neighborsDiscovered = 0;
  std::uint64_t neighborsEvicted = 0;
  std::uint64_t availabilityQueries = 0;
  /// Subset of availabilityQueries spent inside verifyIncoming (exactly
  /// two per verified message: the refreshed self-estimate plus the
  /// sender lookup) — the per-message monitoring cost the overhead
  /// analysis accounts separately.
  std::uint64_t verificationQueries = 0;
  std::uint64_t messagesVerified = 0;
  std::uint64_t messagesRejected = 0;
};

/// One AVMEM participant.
class AvmemNode {
 public:
  AvmemNode(NodeIndex self, const ProtocolContext& ctx)
      : self_(self), ctx_(&ctx) {}

  [[nodiscard]] NodeIndex index() const noexcept { return self_; }

  /// The node's own availability as the monitoring service reports it to
  /// the node itself (refreshed on every discovery/refresh round).
  [[nodiscard]] double selfAvailability() const noexcept { return selfAv_; }

  [[nodiscard]] const SliverList& horizontalSliver() const noexcept {
    return hs_;
  }
  [[nodiscard]] const SliverList& verticalSliver() const noexcept {
    return vs_;
  }
  [[nodiscard]] const NodeStats& stats() const noexcept { return stats_; }

  /// True if `peer` is in either sliver.
  [[nodiscard]] bool knows(NodeIndex peer) const noexcept {
    return hs_.contains(peer) || vs_.contains(peer);
  }

  /// Total neighbor count (HS + VS).
  [[nodiscard]] std::size_t degree() const noexcept {
    return hs_.size() + vs_.size();
  }

  /// Neighbor entries for the requested sliver set, concatenated
  /// (HS first). Entries carry cached availabilities for routing.
  [[nodiscard]] std::vector<NeighborEntry> neighbors(SliverSet set) const;

  // --- maintenance rounds: plan (read-only) → commit (mutating) -----------
  //
  // Every round is split so the engine may run many nodes' plan phases
  // concurrently: a plan method is const, reads only this node's state
  // plus the read-only context, and writes nothing but the caller's plan
  // buffer; the matching commit method applies the plan. The compiler
  // holds plans to this: a const member sees the context only as const.

  /// Plan one Discovery round: scan the coarse `view`, test the predicate
  /// against monitoring-service availabilities, record peers to admit.
  /// `plan` must be fresh (reset).
  void planDiscovery(std::span<const NodeIndex> view,
                     MaintenancePlan& plan) const;
  /// Apply a Discovery plan: admit the planned peers into their slivers.
  void commitDiscovery(const MaintenancePlan& plan);

  /// Plan one Refresh round: re-fetch availabilities and re-evaluate
  /// M(self, peer) for every neighbor in both slivers.
  void planRefresh(MaintenancePlan& plan) const;
  /// Apply a Refresh plan: evict entries whose predicate turned false,
  /// re-file entries whose sliver classification moved, refresh the rest.
  void commitRefresh(const MaintenancePlan& plan);

  /// Plan a coarse-view adoption round (baseline overlays): fetch an
  /// availability for every view peer.
  void planAdopt(std::span<const NodeIndex> view, MaintenancePlan& plan) const;
  /// Apply an adoption plan: replace the membership state with the view
  /// (baseline overlays only — see SimulationConfig::useCoarseViewOverlay).
  /// Every planned peer lands in the vertical sliver; the horizontal
  /// sliver is cleared.
  void commitAdopt(const MaintenancePlan& plan);

  /// One Discovery / Refresh round as plan-then-commit: unit-test
  /// conveniences (the engine plans and commits separately). Neither
  /// gates on churn; MembershipEngine skips offline nodes.
  void discoverOnce(const std::vector<NodeIndex>& view) {
    MaintenancePlan plan;
    planDiscovery(view, plan);
    commitDiscovery(plan);
  }
  void refreshOnce() {
    MaintenancePlan plan;
    planRefresh(plan);
    commitRefresh(plan);
  }

  /// Receiver-side verification (paper Section 4.1): would this node
  /// accept a message from `sender`? Re-evaluates M(sender, self) with
  /// *this node's* view of both availabilities plus the configured
  /// cushion. NOT pure: it deliberately refreshes this node's
  /// self-availability estimate first (a stale value from before an
  /// offline period would corrupt the judgment), so `selfAv_` may move.
  /// Each call issues two monitoring queries — self and sender — charged
  /// to both NodeStats::availabilityQueries and the per-message
  /// NodeStats::verificationQueries breakdown.
  [[nodiscard]] bool verifyIncoming(NodeIndex sender);

  /// Re-fetch this node's own availability estimate.
  void updateSelfAvailability();

  /// Checkpointing (snapshot/): the protocol state a warm restore carries
  /// — self-estimate, counters and both slivers. A restore fills a staged
  /// node through the mutable overload and move-assigns it over the live
  /// one only after the whole checkpoint has validated, so counters resume
  /// from their saved values and post-restore stats equal a
  /// straight-through run's.
  [[nodiscard]] auto persistedState() const noexcept {
    return std::tie(selfAv_, stats_, hs_, vs_);
  }
  [[nodiscard]] auto persistedState() noexcept {
    return std::tie(selfAv_, stats_, hs_, vs_);
  }

  /// Drop a neighbor known to be unreachable (failure feedback from
  /// routing, mirrors the shuffle service's eviction of dead entries).
  /// Removes the peer from *both* slivers — a short-circuit here once let
  /// a dead peer filed in both survive in the vertical sliver, where it
  /// kept attracting retried-greedy traffic — and counts one eviction per
  /// entry removed (matching the Refresh eviction accounting).
  void evictNeighbor(NodeIndex peer) {
    const auto removed = static_cast<std::uint64_t>(hs_.remove(peer)) +
                         static_cast<std::uint64_t>(vs_.remove(peer));
    stats_.neighborsEvicted += removed;
  }

 private:
  /// Plan-phase self-availability fetch: counts the query, records the
  /// answer, returns the availability the round's evaluations should use
  /// (the fresh answer, or the current estimate when the service had
  /// none).
  double planSelfAvailability(MaintenancePlan& plan) const;

  /// Plan-phase evaluation of M(self, peer) through `owner`, the
  /// predicate bound to this node's round availability; counts the query
  /// and reports classification + membership in the returned eval
  /// (known = false when the service has no estimate).
  [[nodiscard]] MaintenancePlan::PeerEval planEvaluatePeer(
      NodeIndex peer, const AvmemPredicate::Row& owner,
      MaintenancePlan& plan) const;

  /// Batched-kernel form of the planDiscovery scan (kFast64 only): hash
  /// the whole candidate span up front through the two-mix batch lane,
  /// then evaluate survivors against the precomputed hashes. Value-
  /// identical to the scalar loop — the hashes are bit-equal and the
  /// evaluation order is unchanged; hashes of skipped candidates are
  /// wasted work, cheaper than per-survivor dispatch.
  void planDiscoveryBatch(std::span<const NodeIndex> view,
                          const AvmemPredicate::Row& owner,
                          MaintenancePlan& plan) const;

  /// Batched-kernel form of one sliver's Refresh scan (kFast64 only):
  /// batch-hash every neighbor, gather availabilities into a contiguous
  /// array, then run the row's classifyMany/evaluateMany over it —
  /// the vectorized eviction/reclassify scan. Appends one eval per peer
  /// in list order, exactly as the scalar planEvaluatePeer loop does.
  void planRefreshSliverBatch(std::span<const NodeIndex> peers,
                              const AvmemPredicate::Row& owner,
                              MaintenancePlan& plan) const;

  /// Commit-phase Refresh pass over `own`: evict dead entries in place,
  /// refresh live ones, collect entries that re-classified into the other
  /// sliver — the planned evaluations standing in for live service calls.
  /// `evals[evalOffset + i]` must be the evaluation of the entry that was
  /// at position i when the plan was taken (planRefresh guarantees this;
  /// the pass keeps the correspondence intact through swap-removals).
  void refreshSliverFromPlan(const MaintenancePlan& plan,
                             std::size_t evalOffset, SliverList& own,
                             SliverKind ownKind,
                             std::vector<std::pair<NodeIndex, double>>& moved);

  NodeIndex self_;
  const ProtocolContext* ctx_;
  double selfAv_ = 0.0;
  SliverList hs_;
  SliverList vs_;
  NodeStats stats_;
};

}  // namespace avmem::core
