// Availability-bucketed rendezvous candidate feeds: the second candidate
// seam feeding Discovery, beside the uniform coarse view.
//
// Why it exists: CYCLON-style shuffling hands Discovery a *uniform* sample
// of the population, but the AVMEM predicate is anything but uniform — a
// node's horizontal sliver wants peers within ±eps of its own availability,
// and hash selectivity means only ~f·N of even those qualify. At 100k+
// nodes a compact view churns through uniform candidates so slowly that
// after 2 sim-hours the mean overlay degree is still < 1: the overlay the
// paper's Theorems 1-2 reason about never materializes. This is the same
// uniform-sampling/structured-target mismatch T-Man-style proximity
// topologies exist to solve, resolved here with the availability dimension
// as the proximity metric.
//
// Mechanism: a sharded rendezvous directory. The availability axis [0, 1]
// is split into B buckets (the shards, default 64); every node publishes
// `(id, bucketed availability)` during its serial maintenance commits, and
// each Discovery round's plan phase draws candidates from exactly the
// buckets its predicate can admit from:
//
//  * horizontal — a wrapping scan from a random offset over the buckets
//    within ±eps of the node's own availability;
//  * vertical — buckets outside the band, chosen with probability
//    proportional to f(av_self, bucket) · bucket population (importance
//    sampling: draws land where admissions are expected).
//
// Scanned entries are pre-filtered by the pair hash against a slackened
// per-bucket predicate threshold, so only plausibly-admissible candidates
// reach the (availability-querying) Discovery evaluation — the scan costs
// one batched pair hash per entry, the emission costs a full evaluation,
// and the emission rate is the predicate's own admission rate.
//
// Concurrency and determinism (the PR 3/4 guarantee is preserved):
//
//  * Publications happen only in the serial commit phase, in slot order,
//    into the *building* buffer — never touched by readers.
//  * The plan phase reads only the *frozen* snapshot: a periodic seal
//    event (on the simulator clock, so at a thread-independent instant)
//    swaps the double-buffered directory, and the frozen side is immutable
//    until the next seal.
//  * All draw randomness comes from `Rng::stream(seed, node, round)` —
//    a pure function of the draw's identity, never of worker interleaving.
//
// Liveness falls out of the epoch hand-off: an offline node stops
// publishing and vanishes from the directory one epoch later, so draws are
// biased toward currently-alive peers without any explicit failure
// detection.
#pragma once

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "core/avmem_node.hpp"
#include "core/predicates.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace avmem::core {

/// Tuning for the rendezvous directory and its per-round draws.
struct CandidateFeedConfig {
  /// Master switch; scale-* scenarios enable it, paper-* keep the
  /// paper-fidelity coarse-view-only Discovery.
  bool enabled = false;
  /// Availability buckets (directory shards) over [0, 1].
  std::size_t buckets = 64;
  /// Directory entries hash-scanned per round across the ±eps band.
  std::size_t horizontalScanBudget = 192;
  /// Directory entries hash-scanned per round across f-weighted
  /// out-of-band buckets.
  std::size_t verticalScanBudget = 96;
  /// Cap on candidates emitted per round (both phases combined).
  std::size_t maxCandidates = 16;
};

/// The availability-bucketed rendezvous directory.
///
/// One instance serves the whole population. `publish` may only be called
/// from the serial commit phase; `drawCandidates` is const, reads only the
/// frozen snapshot plus pure shared functions (pair hash, predicate), and
/// may run concurrently for any set of distinct nodes.
class CandidateFeed {
 public:
  CandidateFeed(const CandidateFeedConfig& config, std::size_t nodeCount,
                const ProtocolContext& ctx, std::uint64_t seed);

  /// Multiplier on the per-bucket predicate threshold used by the hash
  /// pre-filter. The threshold is evaluated at the bucket midpoint, and f
  /// varies within a bucket; slack > 1 trades a few wasted evaluations
  /// for not missing edge-of-bucket members.
  static constexpr double kThresholdSlack = 1.5;

  CandidateFeed(const CandidateFeed&) = delete;
  CandidateFeed& operator=(const CandidateFeed&) = delete;

  /// Begin the periodic epoch hand-off, one seal per `period` (the
  /// Discovery period: every online node republishes once per epoch).
  /// Idempotent (restarts the timer).
  void start(sim::Simulator& sim, sim::SimDuration period);

  /// Cancel the hand-off timer.
  void stop() noexcept { sealTask_.stop(); }

  /// Record `(node, bucketed av)` in the building buffer. Serial commit
  /// phase only. At most one publication per node per epoch sticks (the
  /// first; a node's availability moves at churn speed, not round speed).
  void publish(net::NodeIndex node, double av);

  /// Swap building → frozen and clear the new building buffer. Normally
  /// driven by the periodic seal task; public so tests (and bootstrap
  /// code) can force a hand-off at a chosen instant.
  void sealEpoch();

  /// Append up to `maxCandidates` fresh Discovery candidates for `self`
  /// (own availability `selfAv`, per-node round counter `round`) to
  /// `out`. Entries already present anywhere in `out` (e.g. the coarse
  /// view the engine seeded it with) and `self` itself are never
  /// appended. Reads only the frozen snapshot; deterministic in
  /// (seed, self, round).
  void drawCandidates(net::NodeIndex self, double selfAv,
                      std::uint64_t round,
                      std::vector<net::NodeIndex>& out) const;

  /// Warm-state checkpointing (snapshot/): both directory sides (frozen
  /// and building), the per-node epoch tags and the seal count. The seal
  /// timer is an event, not a field: the checkpoint records its next
  /// firing beside its queue rank and re-arms it through armSeal().
  [[nodiscard]] auto persistedState() const noexcept {
    return std::tie(frozen_.buckets, frozen_.population, building_.buckets,
                    building_.population, publishedInEpoch_, sealedEpochs_);
  }
  [[nodiscard]] auto persistedState() noexcept {
    return std::tie(frozen_.buckets, frozen_.population, building_.buckets,
                    building_.population, publishedInEpoch_, sealedEpochs_);
  }

  /// Re-arm the seal timer at the checkpointed instant, with the period
  /// start() was given.
  void armSeal(sim::Simulator& sim, sim::SimDuration period,
               sim::SimTime firstAt) {
    sealTask_.start(sim, firstAt, period, [this] { sealEpoch(); });
  }

  /// The seal timer, for the checkpoint writer's event accounting.
  [[nodiscard]] const sim::PeriodicTask& sealTask() const noexcept {
    return sealTask_;
  }

  // --- introspection -------------------------------------------------------

  /// Entries in the frozen (readable) snapshot.
  [[nodiscard]] std::size_t directoryPopulation() const noexcept {
    return frozen_.population;
  }
  /// Epoch hand-offs completed since construction.
  [[nodiscard]] std::uint64_t epochsSealed() const noexcept {
    return sealedEpochs_;
  }

 private:
  /// One side of the double buffer: per-bucket node lists in publish
  /// (= commit) order, so contents are identical for any thread count.
  struct Directory {
    std::vector<std::vector<net::NodeIndex>> buckets;
    std::size_t population = 0;

    void clear() noexcept {
      for (auto& b : buckets) b.clear();
      population = 0;
    }
  };

  [[nodiscard]] std::size_t bucketOf(double av) const noexcept;
  [[nodiscard]] double bucketMid(std::size_t b) const noexcept;
  /// The hash pre-filter threshold for candidates filed under bucket `b`,
  /// as seen by `owner`, the predicate bound to the drawing node.
  [[nodiscard]] double bucketThreshold(const AvmemPredicate::Row& owner,
                                       std::size_t b) const noexcept;

  CandidateFeedConfig config_;
  const ProtocolContext* ctx_;
  std::uint64_t seed_;
  Directory frozen_;
  Directory building_;
  /// Per-node epoch tag of the last publication (0 = never); dedups
  /// within one building epoch.
  std::vector<std::uint32_t> publishedInEpoch_;
  std::uint64_t sealedEpochs_ = 0;
  sim::PeriodicTask sealTask_;
};

}  // namespace avmem::core
