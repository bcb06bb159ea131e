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
// run, and because plans only read shared state and write lane-private
// buffers, stats, slivers, and overlays are bit-identical for any thread
// count. The plan phase is a const member: it sees the nodes, the
// simulator and the candidate feed only as const (the mutable ones sit
// behind propagate_const), so a plan that tried to commit, schedule or
// publish would not compile.
//
// The engine is policy-free: it does not know which availability backend
// or predicate the nodes evaluate. AvmemSimulation assembles those and
// hands the engine what its plan phase reads — the shuffle service's
// coarse views, the oracle's "online now" answers and, optionally, the
// rendezvous candidate feed — plus the optional worker pool.
#pragma once

#include <cstdint>
#include <experimental/propagate_const>
#include <vector>

#include "avmon/availability_service.hpp"
#include "avmon/shuffle_service.hpp"
#include "core/avmem_node.hpp"
#include "core/candidate_feed.hpp"
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
  /// Discovery scans `views` (the shuffle substrate's coarse views);
  /// offline nodes, as `oracle` reports them, skip their rounds. `pool`
  /// (optional) parallelizes the plan phase of slot firings. `feed`
  /// (optional) is the rendezvous candidate directory: the plan phase
  /// merges its draws into the coarse view, and every committed round
  /// republishes the node's self-availability to it.
  MembershipEngine(sim::Simulator& sim, std::vector<AvmemNode>& nodes,
                   const avmon::ShuffleService& views,
                   const avmon::OracleAvailabilityService& oracle,
                   const MembershipEngineConfig& config, sim::Rng rng,
                   sim::WorkerPool* pool = nullptr,
                   CandidateFeed* feed = nullptr)
      : sim_(&sim),
        nodes_(&nodes),
        feed_(feed),
        views_(views),
        oracle_(oracle),
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

  /// One plan-phase buffer set, reused across slot firings (the plan's
  /// evals capacity survives reset()).
  struct Lane {
    MaintenancePlan plan;
    /// Discovery candidates with a feed: the coarse view plus feed draws.
    std::vector<net::NodeIndex> candidates;
    /// Entries the feed contributed, folded into stats_ at commit.
    std::uint32_t feedCount = 0;
  };

  /// Plan phase: reads shared state and writes only `lane`; safe to run
  /// concurrently for all members of a slot.
  void planTick(Round round, net::NodeIndex i, Lane& lane) const;
  /// Commit phase: applies `lane`; runs serially in slot order.
  void commitTick(Round round, net::NodeIndex i, const Lane& lane);

  // What commits mutate sits behind propagate_const: a plain pointer or
  // reference member would stay mutable inside the const plan phase.
  std::experimental::propagate_const<sim::Simulator*> sim_;
  std::experimental::propagate_const<std::vector<AvmemNode>*> nodes_;
  std::experimental::propagate_const<CandidateFeed*> feed_;
  const avmon::ShuffleService& views_;
  const avmon::OracleAvailabilityService& oracle_;
  MembershipEngineConfig config_;
  sim::Rng rng_;
  sim::WorkerPool* pool_ = nullptr;
  sim::ShardedScheduler discovery_;
  sim::ShardedScheduler refresh_;
  /// Indexed by slot lane, sized to the largest slot.
  std::vector<Lane> lanes_;
  MembershipEngineStats stats_;
  bool started_ = false;
};

}  // namespace avmem::core
