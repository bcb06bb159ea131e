// AvmemSimulation: the full system, assembled.
//
// A thin facade: it wires the churn trace, the discrete-event simulator,
// the network, the availability-monitoring and coarse-view substrates, the
// predicate, every AVMEM node, the membership maintenance engine
// (core/membership_engine.hpp), and the anycast/multicast engines into the
// complete experimental setup of the paper's Section 4 — then delegates.
// Maintenance scheduling lives in MembershipEngine; experiment
// configurations live in the scenario registry (core/scenario.hpp).
// Examples, tests, and every bench binary drive the system through here.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "avmon/availability_service.hpp"
#include "avmon/avmon_monitors.hpp"
#include "avmon/shuffle_service.hpp"
#include "core/anycast.hpp"
#include "core/avmem_node.hpp"
#include "core/candidate_feed.hpp"
#include "core/config.hpp"
#include "core/membership_engine.hpp"
#include "core/multicast.hpp"
#include "core/predicates.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/worker_pool.hpp"
#include "trace/availability_model.hpp"
#include "trace/churn_trace.hpp"
#include "trace/overnet_generator.hpp"

namespace avmem::snapshot {
struct CheckpointAccess;  // snapshot/checkpoint.cpp
}  // namespace avmem::snapshot

namespace avmem::core {

/// Which availability-monitoring implementation backs the system.
enum class AvailabilityBackend : std::uint8_t {
  kOracle,   ///< ground truth (perfect accuracy and consistency)
  kNoisy,    ///< oracle + bounded querier-dependent error and staleness
  kAvmon,    ///< the full AVMON monitor overlay (paper's deployment)
};

/// Which AvailabilityModel backend represents ground-truth churn (see
/// src/trace/availability_model.hpp and docs/ARCHITECTURE.md for the
/// trade-offs). The values are part of the checkpoint config fingerprint,
/// hence explicit.
enum class TraceBackend : std::uint8_t {
  kRecorded = 0,  ///< ChurnTrace: a bit-packed timeline (paper fidelity)
  kMarkov = 2,    ///< MarkovChurnModel: generative, O(hosts) memory (scale)
};

/// Parse the name used by AVMEM_TRACE_BACKEND and bench output
/// ("recorded" | "markov"); nullopt on anything else.
[[nodiscard]] std::optional<TraceBackend> parseTraceBackend(
    std::string_view name) noexcept;

/// Inverse of parseTraceBackend.
[[nodiscard]] const char* traceBackendName(TraceBackend backend) noexcept;

/// Materialize (or, for kMarkov, parameterize) the ground-truth churn
/// representation — the same factory AvmemSimulation uses internally.
[[nodiscard]] std::unique_ptr<trace::AvailabilityModel> makeTraceModel(
    TraceBackend backend, const trace::OvernetTraceConfig& config);

/// Which membership predicate spans the overlay.
enum class PredicateChoice : std::uint8_t {
  kPaperDefault,     ///< I.B logarithmic VS + II.B log-constant HS
  kRandomOverlay,    ///< consistent-random baseline (Figure 10)
  kLogDecreasing,    ///< I.C log-decreasing VS + II.B
  kConstantSlivers,  ///< I.A + II.A with d1 = d2 = c1 * log(N*)
};

/// Full experiment configuration.
struct SimulationConfig {
  trace::OvernetTraceConfig trace{};
  ProtocolConfig protocol{};
  avmon::ShuffleConfig shuffle{};
  avmon::AvmonConfig avmon{};

  AvailabilityBackend backend = AvailabilityBackend::kAvmon;
  /// kNoisy error bound (answers go stale per kNoisyStaleness).
  double noisyMaxError = 0.05;

  /// Ground-truth churn representation. The synthetic generator feeds the
  /// recorded backend; kMarkov skips materialization entirely and streams
  /// the same per-host chains on demand.
  TraceBackend traceBackend = TraceBackend::kRecorded;

  PredicateChoice predicate = PredicateChoice::kPaperDefault;
  /// Edge probability for kRandomOverlay; 0 = SCAMP-style sizing,
  /// (1 + c1) * log(N*) expected neighbors.
  double randomOverlayP = 0.0;

  /// Availability-bucketed rendezvous candidate feed (the second
  /// Discovery candidate seam beside the coarse view; see
  /// core/candidate_feed.hpp). Off by default for paper fidelity;
  /// scale-* scenarios enable it — without it, compact uniform views
  /// leave Discovery unconverged at 100k+ (mean degree < 1 after
  /// 2 sim-hours).
  CandidateFeedConfig candidateFeed{};

  /// Replace AVMEM's predicate-driven slivers with the raw shuffled
  /// coarse view as each node's membership list — the availability-
  /// agnostic overlay that SCAMP/CYCLON/T-MAN actually produce, used as
  /// the Figure-10 comparator. Views are online-biased and churn
  /// continuously; there is no consistent predicate, so receiver-side
  /// verification is vacuous (any sender is accepted).
  bool useCoarseViewOverlay = false;

  std::uint64_t seed = 1;

  /// Timing-wheel slots per maintenance schedule (discovery, refresh,
  /// shuffle); 0 = auto (per-node slots up to 256). The event queue holds
  /// O(shards) maintenance timers regardless of population size.
  std::size_t maintenanceShards = 0;

  /// Worker threads for the maintenance plan phase (parallel shard
  /// dispatch; see docs/ARCHITECTURE.md "Parallel dispatch"). 1 = fully
  /// serial — the paper-fidelity default; 0 = auto
  /// (hardware_concurrency). Results are identical at any count; only
  /// wall-clock changes. Every availability service (oracle, noisy, AVMON)
  /// answers queries as pure reads and every pair hash backend is a pure
  /// function, so the plan phase runs on any number of threads. The one
  /// field the checkpoint config fingerprint leaves out: a checkpoint
  /// restores at any thread count, bit-identically.
  std::size_t maintenanceThreads = 1;

  /// Deterministic fault injection (src/fault/, docs/ARCHITECTURE.md
  /// "Fault injection"): loss windows, correlated regional outages, flash
  /// crowds, attacker sweeps. When it is empty() no injector is built and
  /// the wire path is byte-identical to a faultless build. The plan feeds
  /// the config fingerprint — a mid-campaign checkpoint only restores into
  /// the same campaign. fault::loadFaultPlan reads a campaign file.
  fault::FaultPlan faultPlan{};
};

/// How long a kNoisy answer stays fresh before it is re-fetched.
inline constexpr sim::SimDuration kNoisyStaleness =
    sim::SimDuration::minutes(20);
/// Histogram bins of the availability PDF the predicate integrates over.
inline constexpr std::size_t kPdfBins = 20;

/// Availability band used to pick initiators (paper Section 4.2:
/// LOW ∈ [0, 1/3), MID ∈ [1/3, 2/3), HIGH ∈ [2/3, 1]).
struct AvBand {
  double lo = 0.0;
  double hi = 1.0;
  /// The HIGH band is closed above — availability 1.0 must qualify — while
  /// LOW/MID stay half-open so the bands partition [0, 1] exactly.
  bool inclusiveHi = false;

  friend constexpr bool operator==(const AvBand&, const AvBand&) noexcept =
      default;

  [[nodiscard]] constexpr bool contains(double av) const noexcept {
    return av >= lo && (av < hi || (inclusiveHi && av <= hi));
  }

  [[nodiscard]] static constexpr AvBand low() noexcept {
    return {0.0, 1.0 / 3.0, false};
  }
  [[nodiscard]] static constexpr AvBand mid() noexcept {
    return {1.0 / 3.0, 2.0 / 3.0, false};
  }
  [[nodiscard]] static constexpr AvBand high() noexcept {
    return {2.0 / 3.0, 1.0, true};
  }
};

/// Aggregate over a batch of anycasts (one plot point in Figures 7-10).
struct AnycastBatchResult {
  std::vector<AnycastResult> results;

  [[nodiscard]] std::size_t count() const noexcept { return results.size(); }
  [[nodiscard]] double fraction(AnycastOutcome o) const noexcept {
    if (results.empty()) return 0.0;
    std::size_t n = 0;
    for (const auto& r : results) n += (r.outcome == o) ? 1 : 0;
    return static_cast<double>(n) / static_cast<double>(results.size());
  }
  [[nodiscard]] double deliveredFraction() const noexcept {
    return fraction(AnycastOutcome::kDelivered);
  }
};

/// The assembled system.
class AvmemSimulation {
 public:
  explicit AvmemSimulation(const SimulationConfig& config);
  /// Use a caller-supplied recorded trace (e.g. real Overnet data via
  /// trace_io) instead of generating one.
  AvmemSimulation(const SimulationConfig& config, trace::ChurnTrace trace);
  /// Use a caller-supplied availability model of any backend.
  AvmemSimulation(const SimulationConfig& config,
                  std::unique_ptr<trace::AvailabilityModel> model);

  AvmemSimulation(const AvmemSimulation&) = delete;
  AvmemSimulation& operator=(const AvmemSimulation&) = delete;

  /// Start the maintenance machinery (shuffling, discovery, refresh) and
  /// advance simulated time by `duration` (the paper warms up for 24 h).
  /// A restored system is already started; warmup() then only advances
  /// the clock. Callers that warm from or into a file call
  /// restoreCheckpoint / saveCheckpoint themselves.
  void warmup(sim::SimDuration duration);

  // --- warm-state checkpointing (snapshot/checkpoint.hpp) ------------------

  /// Serialize the full warm state (slivers, views, in-flight shuffle
  /// legs, feed directory, timer wheels, RNG cursors, sim clock) to a
  /// versioned, CRC-protected binary stream. Throws
  /// snapshot::CheckpointUnsupportedError if the system was never started
  /// or holds state the format cannot capture (an in-flight anycast or
  /// multicast).
  void saveCheckpoint(const std::string& path) const;
  void saveCheckpoint(std::ostream& out) const;

  /// Restore a checkpoint into this freshly-constructed system (it must
  /// not have been started). The checkpoint's config fingerprint must
  /// match this system's config — thread count aside —
  /// or snapshot::CheckpointConfigError is thrown. After restore, running
  /// to any later sim-time is bit-identical to a straight-through run.
  void restoreCheckpoint(const std::string& path);
  void restoreCheckpoint(std::istream& in);

  /// Advance simulated time (maintenance keeps running).
  void run(sim::SimDuration duration) {
    sim_->runUntil(sim_->now() + duration);
  }

  // --- introspection -------------------------------------------------------

  [[nodiscard]] std::size_t nodeCount() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] AvmemNode& node(net::NodeIndex i) { return nodes_.at(i); }
  [[nodiscard]] const AvmemNode& node(net::NodeIndex i) const {
    return nodes_.at(i);
  }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return *sim_; }
  [[nodiscard]] net::Network& network() noexcept { return *network_; }
  [[nodiscard]] const trace::AvailabilityModel& trace() const noexcept {
    return *trace_;
  }
  [[nodiscard]] const AvmemPredicate& predicate() const noexcept {
    return *predicate_;
  }
  [[nodiscard]] const avmon::AvailabilityService& availabilityService()
      const noexcept {
    return *service_;
  }
  /// The AVMON overlay behind the service when backend == kAvmon, else
  /// null (bench/scale_sweep reads its ping accounting).
  [[nodiscard]] const avmon::AvmonSystem* avmonSystem() const noexcept {
    return avmonSystem_.get();
  }
  [[nodiscard]] const avmon::ShuffleService& shuffleService() const noexcept {
    return *shuffle_;
  }
  [[nodiscard]] const MembershipEngine& membershipEngine() const noexcept {
    return *engine_;
  }
  /// The rendezvous candidate directory; nullptr when the feed is
  /// disabled (paper-fidelity configurations).
  [[nodiscard]] const CandidateFeed* candidateFeed() const noexcept {
    return feed_.get();
  }
  /// The fault injector; nullptr unless the config carries a non-empty
  /// fault plan (chaos scenarios).
  [[nodiscard]] const fault::FaultInjector* faultInjector() const noexcept {
    return fault_.get();
  }
  /// Effective maintenance plan-phase thread count after auto-resolution
  /// (1 = serial).
  [[nodiscard]] std::size_t maintenanceThreads() const noexcept {
    return pool_ != nullptr ? pool_->threadCount() : 1;
  }
  [[nodiscard]] const std::vector<NodeId>& ids() const noexcept {
    return ids_;
  }

  /// Ground-truth (trace) availability of node `i` at the current time.
  [[nodiscard]] double trueAvailability(net::NodeIndex i) const {
    return oracle_->availability(i);
  }
  [[nodiscard]] bool isOnline(net::NodeIndex i) const {
    return oracle_->online(i);
  }
  /// All currently-online node indices.
  [[nodiscard]] std::vector<net::NodeIndex> onlineNodes() const;

  /// A uniformly random online node whose ground-truth availability lies
  /// in `band`; nullopt if none exists.
  [[nodiscard]] std::optional<net::NodeIndex> pickInitiator(AvBand band);

  // --- management operations ----------------------------------------------

  /// Run one anycast synchronously (advances simulated time until the
  /// operation settles).
  AnycastResult runAnycast(net::NodeIndex initiator,
                           const AnycastParams& params);

  /// Launch `count` anycasts from initiators drawn from `band`, staggered
  /// `stagger` apart, and run until all settle (paper: 50 messages per
  /// run). Initiators with no eligible node abort the batch early.
  AnycastBatchResult runAnycastBatch(AvBand band, const AnycastParams& params,
                                     std::size_t count,
                                     sim::SimDuration stagger =
                                         sim::SimDuration::millis(200));

  /// Run one multicast synchronously through its dissemination horizon.
  MulticastResult runMulticast(net::NodeIndex initiator,
                               const MulticastParams& params);

  /// Numerically integrate the expected AVMEM degree (HS + VS) of a node
  /// with availability `av` under the active predicate and PDF.
  [[nodiscard]] double expectedDegree(double av) const;

  /// Adjust the receiver-side verification cushion at runtime (Figures
  /// 5-6 sweep this without rebuilding the world).
  void setCushion(double cushion) noexcept { ctx_->config.cushion = cushion; }

  /// Deterministic RNG stream for experiment drivers (bench harness).
  [[nodiscard]] sim::Rng forkRng(std::string_view label) const {
    return rng_.fork(label);
  }

 private:
  /// The checkpoint orchestrator (snapshot/checkpoint.cpp) walks every
  /// state owner through this single named seam instead of the facade
  /// exposing its internals piecemeal.
  friend struct avmem::snapshot::CheckpointAccess;

  void buildSystem(const SimulationConfig& config);
  /// Arm the plan's attacker-campaign timers (fresh-start path; the
  /// checkpoint restore path re-arms them from the FALT section instead).
  void startAttackCampaigns();
  /// One firing of attack stage `i` (periodic until the stage window
  /// closes).
  void fireAttackStage(std::size_t i);

  SimulationConfig config_;
  std::unique_ptr<trace::AvailabilityModel> trace_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::Network> network_;
  std::vector<NodeId> ids_;

  std::unique_ptr<avmon::OracleAvailabilityService> oracle_;
  std::unique_ptr<avmon::AvmonSystem> avmonSystem_;
  std::unique_ptr<avmon::AvailabilityService> serviceOwned_;
  const avmon::AvailabilityService* service_ = nullptr;

  std::unique_ptr<avmon::ShuffleService> shuffle_;
  std::unique_ptr<AvmemPredicate> predicate_;
  std::unique_ptr<ProtocolContext> ctx_;
  std::vector<AvmemNode> nodes_;
  std::unique_ptr<sim::WorkerPool> pool_;
  std::unique_ptr<CandidateFeed> feed_;
  std::unique_ptr<fault::FaultInjector> fault_;
  /// One periodic timer per attack stage (unique_ptr: PeriodicTask's
  /// rescheduling closure captures its own address).
  std::vector<std::unique_ptr<sim::PeriodicTask>> attackTasks_;
  std::unique_ptr<MembershipEngine> engine_;
  std::unique_ptr<AnycastEngine> anycastEngine_;
  std::unique_ptr<MulticastEngine> multicastEngine_;
  sim::Rng rng_;
  bool started_ = false;
  /// pickInitiator's eligible list for the last (churn epoch, band).
  struct PickCache {
    std::size_t epoch = 0;
    AvBand band;
    std::vector<net::NodeIndex> eligible;
  };
  std::optional<PickCache> pickCache_;
};

}  // namespace avmem::core
