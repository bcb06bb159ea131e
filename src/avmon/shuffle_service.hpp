// Decentralized shuffling partial-membership service (coarse views).
//
// AVMEM's Discovery sub-protocol scans "a weakly consistent list that is
// incomplete, and may even contain stale entries ... continuously changed
// by the underlying shuffling protocol, so that given a node y and node x
// that stay long enough in the system, the entry for node y will eventually
// appear in the shuffled list at node x" (paper Section 3.1). The paper
// uses AVMON's coarse-view mechanism, which behaves like SCAMP/CYCLON.
//
// We implement a CYCLON-style exchange: every shuffle period an online node
// picks a random view entry, and the two swap random subsets of their views
// over the simulated network. Unreachable partners (offline at delivery)
// are evicted, which purges dead entries over time. View size defaults to
// ~sqrt(N), the optimum derived in the paper (v + N/v minimized), clamped
// to the population (a view cannot hold more than N-1 distinct peers).
//
// Both halves of the exchange follow the plan/commit parallel-dispatch
// architecture (docs/ARCHITECTURE.md "Parallel dispatch"):
//
//  * Initiation: a scheduler slot firing plans every member's exchange —
//    partner choice and offered-subset sampling from counter-based
//    `Rng::stream`s, read-only against shared state — fanned across the
//    worker pool, then a serial commit enqueues the planned requests in
//    slot order onto the typed batched message queue
//    (net/shuffle_channel.hpp).
//  * Delivery: the channel drains every record due at a (quantized)
//    instant as one batch; deliveries group by the node they mutate, the
//    per-node group plans (reply sampling, merges, evictions — randomness
//    from per-exchange counter streams) fan across the pool, and a serial
//    commit installs the new views in deterministic group order.
//
// Results are bit-identical for any thread count. Views are kept sorted,
// and merges (avmon/view_merge.hpp) find positions by rank.
#pragma once

#include <cstdint>
#include <experimental/propagate_const>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/shuffle_channel.hpp"
#include "sim/random.hpp"
#include "sim/sharded_scheduler.hpp"
#include "sim/simulator.hpp"
#include "sim/worker_pool.hpp"

namespace avmem::avmon {

/// Configuration for the shuffle service.
struct ShuffleConfig {
  /// Per-node view capacity; 0 means "use ceil(sqrt(N))" (paper optimum).
  /// Clamped to N-1 (the number of distinct non-self peers that exist).
  std::size_t viewSize = 0;
  /// Entries exchanged per shuffle; must be >= 1 (the initiator always
  /// advertises at least itself).
  std::size_t gossipLength = 8;
  /// How often each online node initiates a shuffle.
  sim::SimDuration period = sim::SimDuration::minutes(1);
  /// Timing-wheel slots for the initiation schedule; 0 = auto.
  std::size_t shards = 0;
  /// How long an initiator waits for the partner's ack before evicting it.
  sim::SimDuration ackTimeout = sim::SimDuration::millis(500);
};

/// Delivery grid for the shuffle channel's typed message queue: instants
/// round *up* onto this quantum so records coalesce into batches the drain
/// can plan in parallel.
inline constexpr sim::SimDuration kShuffleDeliveryQuantum =
    sim::SimDuration::millis(20);

/// Owns every node's coarse view and drives the periodic exchanges.
class ShuffleService final : public net::ShuffleSink {
 public:
  /// `pool` (optional) fans the plan phases (initiation and delivery
  /// batches) across worker threads; results are identical at any thread
  /// count. `network` carries the typed channel's traffic; the service
  /// itself only asks it who is online.
  ShuffleService(sim::Simulator& sim, net::Network& network,
                 std::size_t nodeCount, const ShuffleConfig& config,
                 sim::Rng rng, sim::WorkerPool* pool = nullptr);

  ShuffleService(const ShuffleService&) = delete;
  ShuffleService& operator=(const ShuffleService&) = delete;

  /// Seed all views with uniformly random peers (the bootstrap a deployed
  /// system gets from its rendezvous server) and start the periodic
  /// shuffling. Nodes initiate at staggered offsets inside one period so
  /// the event load is spread.
  void start();

  /// The current coarse view of node `n`, sorted ascending (may contain
  /// stale entries; never contains `n` itself).
  [[nodiscard]] const std::vector<net::NodeIndex>& viewOf(
      net::NodeIndex n) const {
    return views_.at(n);
  }

  [[nodiscard]] std::size_t viewCapacity() const noexcept { return viewSize_; }
  [[nodiscard]] std::size_t nodeCount() const noexcept {
    return views_.size();
  }

  /// Total shuffle exchanges completed (responder side reached).
  [[nodiscard]] std::uint64_t completedShuffles() const noexcept {
    return completedShuffles_;
  }

  /// Order-sensitive digest over every view (sizes, entries, node order):
  /// any divergence in shuffle outcomes shows up. The thread-invariance
  /// gates (parallel_engine_test, the CI scale-sweep JSON diff) compare
  /// this one implementation so they cannot drift apart.
  [[nodiscard]] std::uint64_t viewDigest() const noexcept;

  /// The initiation wheel — exposes plan-wall samples and firing
  /// counters for the scale-sweep report.
  [[nodiscard]] const sim::ShardedScheduler& scheduler() const noexcept {
    return schedule_;
  }

  /// Host wall-clock spent in the parallelizable plan phases — initiation
  /// slot firings plus delivery-batch group planning — since start().
  [[nodiscard]] double planWallSeconds() const noexcept {
    return schedule_.planWallSeconds() +
           static_cast<double>(drainPlanNs_) * 1e-9;
  }
  /// Host wall-clock spent in the serial commit phases (request enqueue,
  /// view installs, outcome assembly).
  [[nodiscard]] double commitWallSeconds() const noexcept {
    return schedule_.commitWallSeconds() +
           static_cast<double>(drainCommitNs_) * 1e-9;
  }

  /// Warm-state checkpointing (snapshot/): the views, the per-node round
  /// cursors, the derived stream seeds and the post-bootstrap RNG (the
  /// channel persists its own). The initiation wheel itself is not saved
  /// — slot assignment is a pure function of rng_ (its "shuffle-jitter"
  /// fork, see slotsFor()), so restore rebuilds it through resume() and
  /// the orchestrator re-arms the slots at their checkpointed times.
  [[nodiscard]] auto persistedState() const noexcept {
    return std::tie(views_, rounds_, completedShuffles_, planSeed_,
                    wireSeed_, rng_);
  }
  [[nodiscard]] auto persistedState() noexcept {
    return std::tie(views_, rounds_, completedShuffles_, planSeed_,
                    wireSeed_, rng_);
  }

  /// The initiation wheel's slot assignment under service RNG `rng`.
  [[nodiscard]] sim::ShardedScheduler::Slots slotsFor(
      const sim::Rng& rng) const;

  /// Restore path, in place of start() and after persistedState() has
  /// been installed: skips the bootstrap view seeding (its RNG draws are
  /// already reflected in the restored rng_) and builds the initiation
  /// wheel un-armed from `slots` (slotsFor() the restored rng_).
  void resume(sim::ShardedScheduler::Slots slots) {
    startSchedule(std::move(slots), /*arm=*/false);
  }

  /// Mutable wheel/channel access for the restore orchestrator.
  [[nodiscard]] sim::ShardedScheduler& wheel() noexcept { return schedule_; }
  [[nodiscard]] net::ShuffleChannel& channel() noexcept { return channel_; }
  [[nodiscard]] const net::ShuffleChannel& channel() const noexcept {
    return channel_;
  }

  // --- net::ShuffleSink (typed channel deliveries; event-loop context) ----

  void onShuffleBatch(
      std::span<const net::ShuffleDelivery> batch,
      std::vector<net::ShuffleRequestOutcome>& outcomes) override;

 private:
  /// One planned initiation, produced read-only in the slot plan phase
  /// and applied by the serial commit pass. Lane buffers are reused
  /// across slot firings (reset keeps the offered capacity).
  struct ExchangePlan {
    bool active = false;
    net::NodeIndex partner = 0;
    /// Sampled view subset plus the trailing self-entry (CYCLON: the
    /// initiator always advertises itself).
    std::vector<net::NodeIndex> offered;

    void reset() noexcept {
      active = false;
      offered.clear();
    }
  };

  /// All deliveries of one batch that mutate the same node, plus that
  /// group's plan outputs. Buffers are reused across batches.
  struct DeliveryGroup {
    net::NodeIndex node = 0;
    std::uint32_t completed = 0;        ///< requests answered (plan count)
    std::vector<std::uint32_t> records; ///< batch indices, batch order
    std::vector<net::NodeIndex> view;   ///< working copy → installed
    std::vector<net::NodeIndex> replyPool;  ///< concatenated reply samples
    /// Per request in this group (batch order): (offset, length) into
    /// replyPool.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> replySpans;
    std::vector<net::NodeIndex> scratch;  ///< sampling scratch

    void reset(net::NodeIndex n) noexcept {
      node = n;
      completed = 0;
      records.clear();
      view.clear();
      replyPool.clear();
      replySpans.clear();
    }
  };

  /// Initiation plan phase: reads its own view, the online oracle and a
  /// counter-based RNG stream; writes only `plan`.
  void planExchange(net::NodeIndex initiator, ExchangePlan& plan) const;
  /// Initiation commit phase: serial, slot order — enqueue the planned
  /// request onto the typed channel (latency sampling and accounting
  /// happen here, in deterministic order).
  void commitExchange(net::NodeIndex initiator, const ExchangePlan& plan);

  /// Delivery plan phase for one group: replay the group's deliveries in
  /// batch order against a working copy of the node's view. Read-only
  /// against shared state; writes only `group`'s buffers.
  void planGroup(std::span<const net::ShuffleDelivery> batch,
                 DeliveryGroup& group) const;

  /// Uniformly sample up to `maxTake` entries of `view` into `out`
  /// without mutating the view (partial Fisher-Yates over a copy).
  static void sampleSubsetInto(const std::vector<net::NodeIndex>& view,
                               std::size_t maxTake, sim::Rng& rng,
                               std::vector<net::NodeIndex>& out);

  /// Build the initiation wheel from `slots`; `arm` as in
  /// ShardedScheduler::start (false on restore, which re-arms the
  /// checkpointed slots itself).
  void startSchedule(sim::ShardedScheduler::Slots slots, bool arm);

  /// Remove `dead` from the sorted `view` if present.
  static void eraseSorted(std::vector<net::NodeIndex>& view,
                          net::NodeIndex dead);

  /// propagate_const keeps the simulator const inside the const plans.
  std::experimental::propagate_const<sim::Simulator*> sim_;
  const net::Network& network_;
  std::size_t viewSize_;
  std::size_t gossipLength_;
  sim::SimDuration period_;
  std::size_t shards_;
  sim::Rng rng_;
  sim::WorkerPool* pool_;
  std::vector<std::vector<net::NodeIndex>> views_;  ///< each sorted ascending
  net::ShuffleChannel channel_;
  sim::ShardedScheduler schedule_;
  std::vector<ExchangePlan> lanes_;    ///< indexed by slot lane
  std::vector<std::uint32_t> rounds_;  ///< per-node Rng::stream counter
  std::uint64_t planSeed_ = 0;  ///< initiation streams: (node, round)
  std::uint64_t wireSeed_ = 0;  ///< delivery streams: (request seq, leg)
  /// Delivery-batch scratch, reused across drains.
  std::vector<DeliveryGroup> groups_;
  std::vector<std::uint32_t> orderScratch_;
  std::vector<std::uint32_t> groupOf_;
  std::vector<std::uint32_t> groupCursor_;
  std::uint64_t drainPlanNs_ = 0;
  std::uint64_t drainCommitNs_ = 0;
  std::uint64_t completedShuffles_ = 0;
};

}  // namespace avmem::avmon
