// AVMON re-implementation: consistent availability-monitoring overlay,
// rebuilt on the plan/commit architecture so the full AVMON + AVMEM stack
// runs at 100k–1M hosts.
//
// Substitution note (see DESIGN.md): the paper's implementation leverages
// the authors' AVMON system [17] (Morales & Gupta, ICDCS 2007). We rebuild
// its essentials from the published description:
//
//  * Consistent monitor selection — node m monitors node x iff
//    H(id(m), id(x)) <= k / N*, the same hash-vs-threshold construction as
//    the AVMEM predicate itself. Every node can verify who monitors whom;
//    the expected monitor-set size is k.
//  * Sampled availability estimation — each monitor pings its target once
//    per trace epoch *while the monitor itself is online* and keeps
//    (samples, target-was-up) counters; raw availability = up / samples.
//  * Querier-dependent answers — a querier only hears from the monitors it
//    can reach (those currently online), so different queriers see
//    different, differently-stale estimates. This is the organic source of
//    the inconsistency measured in Figures 5-6.
//
// Architecture (PR 9 — see docs/ARCHITECTURE.md "AVMON at scale"):
//
//  * Lazy monitor materialization. The monitor set of a target is built on
//    first query — one O(N) hash scan through PairHasher::hashMany with
//    the target fixed on the right (the four-mix kFast64 batch for seeded
//    scale runs; for the paper's SHA-1, sixteen pairs per AVX-512 block
//    where the CPU has it, else one sha1Pair6 per pair) — then memoized
//    behind an atomic
//    ready flag with striped-mutex publication, so concurrent plan-phase
//    queries materialize safely. The relation stays verifiable: isMonitor
//    recomputes from the hash, never the table.
//  * Frozen estimate counters. Per-target flat SoA cells (monitors,
//    samples[], up[]) are advanced ONLY by an epoch-boundary plan/commit
//    task: at the end of each trace epoch the task plans (read-only, fanned
//    across the shared WorkerPool) which monitors and targets were online,
//    then commits counters serially in ascending target order. query() is
//    a pure read of frozen counters, so the engine plans in parallel with
//    the AVMON backend, bit-identically at any thread count.
//  * One query table per (epoch, fold cursor). An answer depends on the
//    counters and on who is online now, both fixed under that key, so the
//    first query under a new key sums each materialized target's online
//    monitors once, and later queries load the sums (see
//    AvmonAvailabilityService::query).
//  * Wire-billed pings. Each committed sample is a ping billed into
//    NetworkStats (and answered by a pong when the target is up) through
//    net::Network's one fault consult (a friend seam), on the injector's
//    kPing lane — chaos campaigns drop/duplicate/delay AVMON traffic like
//    any other message kind. A dropped ping is a lost sample. Extra delay
//    is a no-op at epoch granularity. Catch-up counters computed at
//    materialization time cover epochs that predate the target's first
//    query; they are injector-free and unbilled by design (the monitors
//    were pinging before anyone asked — re-billing history would make
//    traffic depend on query order).
//
// Ordering note: estimates advance at the epoch-boundary fold event, which
// is scheduled one epoch ahead of its firing. An event at the same instant
// that was scheduled more than one epoch in advance would order ahead of
// the fold and observe the previous epoch's counters — deterministically;
// no shipped timer has a period that long.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "avmon/availability_service.hpp"
#include "core/node_id.hpp"
#include "hash/pair_hash.hpp"
#include "sim/simulator.hpp"
#include "sim/worker_pool.hpp"
#include "trace/availability_model.hpp"

namespace avmem::avmon {

/// Configuration for the AVMON monitor overlay.
struct AvmonConfig {
  /// Expected number of monitors per target (the paper's AVMON coarse
  /// view gives O(sqrt(N)) discovery; the monitor-set size is a small k).
  /// Must be finite, positive, and < hostCount — a threshold k/N >= 1
  /// would make everyone monitor everyone (construction throws).
  double expectedMonitorsPerTarget = 8.0;
  /// Pair-hash algorithm backing the consistent monitor predicate.
  hashing::PairHashAlgorithm hashAlgorithm = hashing::PairHashAlgorithm::kSha1;
  /// Seed of the monitor-selection hash (kFast64 only; digest algorithms
  /// ignore it, matching hash/pair_hash.hpp).
  std::uint64_t hashSeed = hashing::kFast64DefaultSeed;
};

/// The AVMON system: monitor sets plus per-monitor availability estimates.
class AvmonSystem {
 public:
  /// Validates the config and sets up lazy monitor-relation storage for
  /// all hosts in `trace` — no hashes are computed until a target is
  /// queried. `ids` supplies wire identities; `ids.size()` must equal
  /// `trace.hostCount()`. Estimates advance only while the epoch task
  /// runs — call start() (AvmemSimulation does this in warmup()).
  AvmonSystem(const trace::AvailabilityModel& trace, sim::Simulator& sim,
              const std::vector<core::NodeId>& ids, const AvmonConfig& config);

  AvmonSystem(const AvmonSystem&) = delete;
  AvmonSystem& operator=(const AvmonSystem&) = delete;

  /// Attach the worker pool the epoch fold's plan phase fans out across
  /// (nullable — the fold then plans inline, same results).
  void setPool(sim::WorkerPool* pool) noexcept { pool_ = pool; }

  /// Attach the network whose stats and fault injector the per-sample
  /// ping traffic is billed through (nullable — standalone systems keep
  /// their own PingStats but touch no wire).
  void attachWire(net::Network* network) noexcept { wire_ = network; }

  /// Arm the epoch-boundary estimate-advance task at nextFold() of the
  /// current fold cursor. No-op when that is nullopt. Safe after a
  /// checkpoint restore: the first firing lands at
  /// (advancedEpochs()+1) * epochDuration.
  void start();

  /// Where start() arms the epoch task under fold cursor `advanced`:
  /// the next unfolded epoch boundary, or nullopt when every foldable
  /// epoch is already folded (or the model has a single epoch). A pure
  /// function of the cursor and the trace, so a restore checks a
  /// checkpoint's saved timer against it before installing anything.
  [[nodiscard]] std::optional<sim::SimTime> nextFold(
      std::uint64_t advanced) const;

  /// Cancel the epoch task (the destructor also does).
  void stop() noexcept { epochTask_.stop(); }

  /// The estimate-advance timer (snapshot/ introspects its pending event).
  [[nodiscard]] const sim::PeriodicTask& epochTask() const noexcept {
    return epochTask_;
  }

  /// Monitors assigned to `target` (consistent; verifiable by any party).
  /// Materializes the target's cell on first call; the returned reference
  /// is stable for the system's lifetime.
  [[nodiscard]] const std::vector<NodeIndex>& monitorsOf(
      NodeIndex target) const {
    return ensureCell(target).monitors;
  }

  /// True iff `m` is a legitimate monitor of `target` under the consistent
  /// predicate (recomputed from the hash, not the memoized table).
  [[nodiscard]] bool isMonitor(NodeIndex m, NodeIndex target) const;

  /// Sampling counters for one (monitor, target), frozen as of the last
  /// folded epoch boundary.
  struct EstimateCell {
    std::size_t nextEpoch = 0;  ///< first epoch not yet folded in
    std::uint32_t samples = 0;  ///< epochs in which the monitor was online
    std::uint32_t up = 0;       ///< of those, epochs the target was up
  };

  /// The estimate monitor `m` holds for `target`: fraction of m's online
  /// epochs (among the folded ones) in which target was up. nullopt if m
  /// has not yet been online for any folded epoch.
  [[nodiscard]] std::optional<double> monitorEstimate(NodeIndex m,
                                                      NodeIndex target) const;

  /// Raw sampling counters of monitor `m` for `target`. Returned BY VALUE:
  /// the legacy API handed out a reference into a rehashable map, which a
  /// second lookup could invalidate (tests/avmon pins the fix). Any (m,
  /// target) pair is answerable — non-monitor pairs derive their counters
  /// from the trace on the fly, like the legacy lazy map did.
  [[nodiscard]] EstimateCell monitorCounters(NodeIndex m,
                                             NodeIndex target) const;

  [[nodiscard]] std::size_t hostCount() const noexcept { return ids_.size(); }

  /// Epoch boundaries folded into the counters so far (== the nextEpoch
  /// every cell is advanced to).
  [[nodiscard]] std::uint64_t advancedEpochs() const noexcept {
    return advancedEpochs_.load(std::memory_order_acquire);
  }

  /// Number of targets whose monitor cell has been materialized.
  [[nodiscard]] std::size_t materializedTargets() const noexcept {
    std::size_t count = 0;
    for (std::size_t t = 0; t < ids_.size(); ++t) {
      if (ready_[t].load(std::memory_order_acquire) != 0) ++count;
    }
    return count;
  }

  /// Monitoring-traffic accounting (mirrors what the wire seam billed
  /// into NetworkStats; kept even without an attached wire).
  struct PingStats {
    std::uint64_t sent = 0;          ///< pings committed (incl. lost ones)
    std::uint64_t delivered = 0;     ///< pings that reached an up target
    std::uint64_t lostToFaults = 0;  ///< samples eaten by injected drops
    std::uint64_t bytes = 0;         ///< ping + pong bytes on the wire
  };
  [[nodiscard]] const PingStats& pingStats() const noexcept { return pings_; }

  /// Rough wire sizes: a ping is a minimal probe, a pong mirrors an ack.
  static constexpr std::size_t kPingBytes = 20;

  // --- warm-state checkpointing (snapshot/) --------------------------------

  /// One materialized target: monitor list (ascending) plus flat SoA
  /// sampling counters indexed like it.
  struct TargetCell {
    std::vector<NodeIndex> monitors;
    std::vector<std::uint32_t> samples;
    std::vector<std::uint32_t> up;
  };
  /// Cells indexed by target; null = not materialized yet.
  using Cells = std::vector<std::unique_ptr<TargetCell>>;

  /// Everything path-dependent besides the fold cursor (advancedEpochs()):
  /// ping accounting and the materialized cells (their counters diverge
  /// from the pure trace function whenever a fault campaign ate samples,
  /// and the materialized *set* determines future billing order). Monitor
  /// lists are NOT saved — they are a pure hash, rebuilt by restoreStage().
  /// Serial context only.
  [[nodiscard]] auto persistedState() const noexcept {
    return std::tie(pings_, std::as_const(cells_));
  }

  /// Rebuild each staged cell's monitor set (one scan per target),
  /// leaving this system untouched. Throws std::invalid_argument when a
  /// cell's counter count does not match its recomputed monitor set (a
  /// config/trace mismatch the fingerprint should have caught, or a
  /// hand-edited file). `cells` must hold one slot per host.
  void restoreStage(Cells& cells) const;

  /// Adopt a staged restore; never throws. Only valid on a fresh system.
  /// Drops the query table, so the next query rebuilds it from the
  /// restored cells.
  void restoreInstall(std::uint64_t advancedEpochs, const PingStats& pings,
                      Cells cells) noexcept;

 private:
  /// The facade answers through query().
  friend class AvmonAvailabilityService;

  static constexpr std::size_t kStripes = 64;
  static constexpr std::uint64_t kNoTable = ~std::uint64_t{0};

  /// Σup and Σsamples over one target's monitors that are online in the
  /// table's epoch; samples < 0 marks a target whose cell was not
  /// materialized when the table was built.
  struct TargetSums {
    double up = 0.0;
    double samples = -1.0;
  };

  /// AvmonAvailabilityService::query's answer (see there).
  [[nodiscard]] std::optional<double> query(NodeIndex querier,
                                            NodeIndex target) const;
  /// The per-monitor walk query() falls back to for a target the table
  /// does not cover.
  [[nodiscard]] std::optional<double> queryByWalk(NodeIndex querier,
                                                  NodeIndex target,
                                                  std::size_t epoch) const;
  /// Fill the query table for `epoch` under the current counters and
  /// publish it as `key`; the first reader of a new key calls this.
  void rebuildQueryTable(std::size_t epoch, std::uint64_t key) const;

  [[nodiscard]] const TargetCell& ensureCell(NodeIndex target) const;
  void scanMonitors(NodeIndex target, std::vector<NodeIndex>& out) const;
  void advanceEpochBoundary();
  void foldEpoch(std::uint64_t e);
  /// Bill one ping over the wire seam; returns false when an injected
  /// drop ate the sample. Serial (commit) context only.
  bool billPing(NodeIndex m, NodeIndex target, bool targetUp);

  const trace::AvailabilityModel& trace_;
  sim::Simulator& sim_;
  const std::vector<core::NodeId>& ids_;
  hashing::PairHasher hasher_;
  double threshold_;
  /// fast64Tail6 of every id: the words PairHasher::hashMany reads.
  std::vector<std::uint64_t> idWords_;

  // Lazy cells: null until materialized; publication is flag-release /
  // query-acquire under a striped mutex (concurrent plan-phase queries).
  mutable Cells cells_;
  mutable std::unique_ptr<std::atomic<std::uint8_t>[]> ready_;
  mutable std::array<std::mutex, kStripes> stripes_;

  // Query table for one (epoch, fold cursor) key: a per-host online flag
  // and per-target sums. Counters move only at folds and restores, and
  // the clock only in serial code between plan fan-outs, so every
  // concurrent reader shares one key. The rebuild runs under a mutex
  // behind a double-checked acquire/release tag (the pattern of
  // OracleAvailabilityService).
  mutable std::mutex tableMutex_;
  mutable std::vector<std::uint8_t> tableOnline_;
  mutable std::vector<TargetSums> tableSums_;
  /// (epoch << 32) | fold cursor of the table; stored (release) after
  /// the arrays are filled. kNoTable until the first query.
  mutable std::atomic<std::uint64_t> tableKey_{kNoTable};

  std::atomic<std::uint64_t> advancedEpochs_{0};
  sim::PeriodicTask epochTask_;
  sim::WorkerPool* pool_ = nullptr;
  net::Network* wire_ = nullptr;
  PingStats pings_;

  // Fold scratch (serial event context; plan tasks write disjoint slices).
  std::vector<NodeIndex> foldTargets_;
  std::vector<std::size_t> foldOffsets_;
  std::vector<std::uint8_t> foldMonitorUp_;
  std::vector<std::uint8_t> foldTargetUp_;
};

/// AvailabilityService facade over AvmonSystem.
class AvmonAvailabilityService final : public AvailabilityService {
 public:
  explicit AvmonAvailabilityService(const AvmonSystem& system) noexcept
      : system_(system) {}

  /// Aggregate the target's monitor set, weighting each informed monitor
  /// by its sample count (AVMON queries can reach the whole consistent
  /// monitor set, and pooling the samples is the minimum-variance
  /// combination). Querier-dependence — the inconsistency Figures 5-6
  /// measure — remains: a querier only hears from monitors it can reach,
  /// i.e. those currently online, plus itself when it monitors the
  /// target. nullopt if no informed monitor is reachable.
  ///
  /// The answer is a pure function of the target's counters and who is
  /// online now, so AvmonSystem keeps one table per (epoch, fold cursor)
  /// holding, per target, Σup and Σsamples over its monitors online now.
  /// A query is one load of those sums, plus a binary search in the
  /// monitor list only when the querier is offline (its own counters
  /// still count). A target materialized after the table was built is
  /// answered by walking its monitors. Every term is an integer far
  /// below 2^53, so the double sums are exact in any order and both
  /// paths return the same bits. The table is rebuilt by the first query
  /// under a new key (a fold, a new epoch, or a restore) and read
  /// concurrently under the parallel plan phase.
  [[nodiscard]] std::optional<double> query(NodeIndex querier,
                                            NodeIndex target) const override;

 private:
  const AvmonSystem& system_;
};

}  // namespace avmem::avmon
