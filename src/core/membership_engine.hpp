// The membership maintenance engine: Discovery and Refresh for the whole
// population, decoupled from the experiment facade.
//
// AVMEM separates mechanism from policy: the *predicate* decides who
// belongs in a list, the *maintenance machinery* merely keeps evaluating it
// against the churning coarse views. This engine is that machinery. It owns
// the maintenance schedule for every node and drives each node's
// plan/commit maintenance rounds (core/avmem_node.hpp); the schedule itself
// is a sharded timing wheel (sim/sharded_scheduler.hpp), so the event queue
// carries O(shards) maintenance timers instead of 2·N PeriodicTasks —
// the difference between thousands and millions of nodes.
//
// Parallel dispatch: every maintenance round is split into a read-only
// *plan* phase and a mutating *commit* phase. When the engine is given a
// WorkerPool, a slot firing fans the plan phase of all its members across
// the pool and joins before committing serially in slot order (the
// scheduler's barrier mode) — simulated time never moves while workers
// run, and because plans only read concurrency-safe shared state and
// write lane-private buffers, stats, slivers, and overlays are
// bit-identical for any thread count.
//
// The engine is policy-free: it does not know which availability backend,
// predicate, or view substrate is plugged in. AvmemSimulation assembles
// those and hands the engine its two read seams — the coarse-view and
// churn-oracle callables consumed by the plan phase — plus the optional
// worker pool.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/avmem_node.hpp"
#include "sim/random.hpp"
#include "sim/sharded_scheduler.hpp"
#include "sim/simulator.hpp"
#include "sim/worker_pool.hpp"

namespace avmem::core {

/// Maintenance knobs (a projection of ProtocolConfig plus sim-layer
/// scheduling parameters).
struct MembershipEngineConfig {
  sim::SimDuration discoveryPeriod = sim::SimDuration::minutes(1);
  sim::SimDuration refreshPeriod = sim::SimDuration::minutes(20);
  /// Timing-wheel slots per schedule; 0 = auto (per-node up to 256).
  std::size_t shards = 0;
  /// Figure-10 baseline: adopt the raw coarse view instead of running
  /// predicate-driven Discovery; Refresh is a no-op in this mode.
  bool coarseViewOverlay = false;
};

/// Engine-level counters (per-node counters live in NodeStats).
struct MembershipEngineStats {
  std::uint64_t discoveryRounds = 0;  ///< per-node discovery firings
  std::uint64_t refreshRounds = 0;    ///< per-node refresh firings
  std::uint64_t skippedOffline = 0;   ///< firings gated out by churn
  /// Candidates the secondary feed contributed to discovery rounds (after
  /// dedup against the coarse view); zero when no feed is wired.
  std::uint64_t feedCandidates = 0;
};

/// Owns discovery/refresh scheduling for all nodes.
class MembershipEngine {
 public:
  /// The current coarse view of a node (the shuffle substrate).
  using ViewFn =
      std::function<std::span<const net::NodeIndex>(net::NodeIndex)>;
  /// Is a node online right now (the churn oracle)?
  using OnlineFn = std::function<bool(net::NodeIndex)>;
  /// The second candidate seam beside ViewFn: append extra Discovery
  /// candidates for `node`'s round number `round` to `out` (which already
  /// holds the coarse view — implementations must not duplicate entries
  /// or add `node` itself). Called from the plan phase, so it must be
  /// read-only against shared state and deterministic in (node, round) —
  /// the availability-bucketed rendezvous feed (core/candidate_feed.hpp)
  /// is the canonical implementation.
  using FeedFn = std::function<void(net::NodeIndex node, double selfAv,
                                    std::uint64_t round,
                                    std::vector<net::NodeIndex>& out)>;
  /// Directory publication hook, invoked in the serial commit phase after
  /// every committed (online) maintenance round with the node's current
  /// self-availability estimate.
  using PublishFn = std::function<void(net::NodeIndex, double av)>;

  /// `pool` (optional) parallelizes the plan phase of slot firings; the
  /// caller must only pass a pool when the view/online/feed seams and the
  /// node's plan-phase reads (availability service, pair hasher, churn
  /// model) are safe to call concurrently — AvmemSimulation gates this on
  /// the backends' declared capabilities. `feed`/`publish` (optional)
  /// plug in the rendezvous candidate directory.
  MembershipEngine(sim::Simulator& sim, std::vector<AvmemNode>& nodes,
                   ViewFn view, OnlineFn online,
                   const MembershipEngineConfig& config, sim::Rng rng,
                   sim::WorkerPool* pool = nullptr, FeedFn feed = nullptr,
                   PublishFn publish = nullptr)
      : sim_(sim),
        nodes_(nodes),
        view_(std::move(view)),
        online_(std::move(online)),
        feed_(std::move(feed)),
        publish_(std::move(publish)),
        config_(config),
        rng_(rng),
        pool_(pool) {}

  MembershipEngine(const MembershipEngine&) = delete;
  MembershipEngine& operator=(const MembershipEngine&) = delete;

  /// Begin the maintenance schedules. Idempotent.
  void start();

  /// The wheels' slot assignments, pure in the construction RNG (rng_ is
  /// never advanced; forks are pure). refreshSlots() is empty for the
  /// coarse-view overlay, which runs no refresh wheel.
  [[nodiscard]] sim::ShardedScheduler::Slots discoverySlots() const;
  [[nodiscard]] sim::ShardedScheduler::Slots refreshSlots() const;

  /// Warm-state restore (snapshot/): set up both wheels from the slot
  /// assignments the restore already checked the checkpoint against
  /// (discoverySlots()/refreshSlots()), but leave every slot timer
  /// un-armed. The restore orchestrator then arms the wheels
  /// (discoveryWheel()/refreshWheel() + armSlot) at the checkpointed
  /// next-fire times, in saved tie-break order.
  void prepareResume(sim::ShardedScheduler::Slots discovery,
                     sim::ShardedScheduler::Slots refresh);

  /// Cancel all maintenance timers.
  void stop();

  // Mutable wheel access + counter install for the restore orchestrator
  // (snapshot/checkpoint.cpp); not part of the steady-state API.
  [[nodiscard]] sim::ShardedScheduler& discoveryWheel() noexcept {
    return discovery_;
  }
  [[nodiscard]] sim::ShardedScheduler& refreshWheel() noexcept {
    return refresh_;
  }
  void restoreStats(const MembershipEngineStats& stats) noexcept {
    stats_ = stats;
  }

  [[nodiscard]] bool running() const noexcept {
    return discovery_.running() || refresh_.running();
  }

  /// Periodic heap entries this engine costs — O(shards), not O(nodes).
  [[nodiscard]] std::size_t scheduledTimerCount() const noexcept {
    return discovery_.activeShardCount() + refresh_.activeShardCount();
  }

  /// Execution lanes the plan phase uses (1 = fully serial).
  [[nodiscard]] std::size_t planThreads() const noexcept {
    return pool_ != nullptr ? pool_->threadCount() : 1;
  }

  /// Host wall-clock spent in the (parallelizable) plan phase across both
  /// schedules since start().
  [[nodiscard]] double planWallSeconds() const noexcept {
    return discovery_.planWallSeconds() + refresh_.planWallSeconds();
  }
  /// Host wall-clock spent in the serial commit phase across both
  /// schedules since start().
  [[nodiscard]] double commitWallSeconds() const noexcept {
    return discovery_.commitWallSeconds() + refresh_.commitWallSeconds();
  }

  [[nodiscard]] const sim::ShardedScheduler& discoveryScheduler()
      const noexcept {
    return discovery_;
  }
  [[nodiscard]] const sim::ShardedScheduler& refreshScheduler()
      const noexcept {
    return refresh_;
  }
  [[nodiscard]] const MembershipEngineStats& stats() const noexcept {
    return stats_;
  }

 private:
  /// Which maintenance round a slot firing is running.
  enum class Round : std::uint8_t { kDiscovery, kRefresh };

  /// Shared body of start() and prepareResume(): build both wheels from
  /// their slot assignments; arm the slot timers only when `arm` is set.
  void startImpl(sim::ShardedScheduler::Slots discovery,
                 sim::ShardedScheduler::Slots refresh, bool arm);

  /// Plan phase: read-only against shared state, writes only the member's
  /// lane buffer; safe to run concurrently for all members of a slot.
  void planTick(Round round, net::NodeIndex i, std::size_t lane);
  /// Commit phase: applies the lane buffer; runs serially in slot order.
  void commitTick(Round round, net::NodeIndex i, std::size_t lane);

  sim::Simulator& sim_;
  std::vector<AvmemNode>& nodes_;
  ViewFn view_;
  OnlineFn online_;
  FeedFn feed_;
  PublishFn publish_;
  MembershipEngineConfig config_;
  sim::Rng rng_;
  sim::WorkerPool* pool_ = nullptr;
  sim::ShardedScheduler discovery_;
  sim::ShardedScheduler refresh_;
  /// Lane-indexed plan buffers, sized to the largest slot and reused
  /// across firings (evals capacity survives reset()).
  std::vector<MaintenancePlan> lanes_;
  /// Lane-indexed merged candidate buffers (coarse view + feed draws) and
  /// the per-lane count of feed-contributed entries, folded into stats_
  /// at commit (plan phases must not touch shared counters).
  std::vector<std::vector<net::NodeIndex>> candidateLanes_;
  std::vector<std::uint32_t> laneFeedCounts_;
  MembershipEngineStats stats_;
  bool started_ = false;
};

}  // namespace avmem::core
