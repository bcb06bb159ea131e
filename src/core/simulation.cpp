#include "core/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/attack.hpp"
#include "net/latency.hpp"
#include "trace/markov_churn.hpp"

namespace avmem::core {

using net::NodeIndex;

std::optional<TraceBackend> parseTraceBackend(std::string_view name) noexcept {
  if (name == "recorded") return TraceBackend::kRecorded;
  if (name == "markov") return TraceBackend::kMarkov;
  return std::nullopt;
}

const char* traceBackendName(TraceBackend backend) noexcept {
  switch (backend) {
    case TraceBackend::kRecorded: return "recorded";
    case TraceBackend::kMarkov: return "markov";
  }
  return "?";
}

std::unique_ptr<trace::AvailabilityModel> makeTraceModel(
    TraceBackend backend, const trace::OvernetTraceConfig& config) {
  switch (backend) {
    case TraceBackend::kRecorded:
      return std::make_unique<trace::ChurnTrace>(
          trace::generateOvernetTrace(config));
    case TraceBackend::kMarkov:
      return std::make_unique<trace::MarkovChurnModel>(config);
  }
  throw std::invalid_argument("makeTraceModel: unknown trace backend");
}

AvmemSimulation::AvmemSimulation(const SimulationConfig& config)
    : AvmemSimulation(config,
                      makeTraceModel(config.traceBackend, config.trace)) {}

AvmemSimulation::AvmemSimulation(const SimulationConfig& config,
                                 trace::ChurnTrace trace)
    : AvmemSimulation(config, std::make_unique<trace::ChurnTrace>(
                                  std::move(trace))) {}

AvmemSimulation::AvmemSimulation(
    const SimulationConfig& config,
    std::unique_ptr<trace::AvailabilityModel> model)
    : config_(config), trace_(std::move(model)), rng_(config.seed) {
  if (trace_ == nullptr) {
    throw std::invalid_argument("AvmemSimulation: null availability model");
  }
  if (!config_.faultPlan.outages.empty() ||
      !config_.faultPlan.flashCrowds.empty()) {
    // Compose the outage/flash-crowd windows over the trace so the
    // network's online oracle, the availability services, maintenance
    // and initiator picking all see the same degraded world. The PDF
    // stays healthy: the overlay delegates fullAvailability() to the
    // inner model.
    trace_ = std::make_unique<fault::OutageOverlayModel>(std::move(trace_),
                                                         config_.faultPlan);
  }
  buildSystem(config_);
}

void AvmemSimulation::buildSystem(const SimulationConfig& config) {
  const std::size_t n = trace_->hostCount();
  if (n < 2) {
    throw std::invalid_argument("AvmemSimulation: need at least two hosts");
  }

  sim_ = std::make_unique<sim::Simulator>();
  ids_ = makeNodeIds(n, rng_.fork("node-ids").next());

  // Ground truth, one table per churn epoch: the oracle answers every
  // "online now" and "availability now" read below.
  oracle_ = std::make_unique<avmon::OracleAvailabilityService>(*trace_, *sim_);
  auto* oraclePtr = oracle_.get();

  // Network: delivery gated on trace-online at the delivery instant.
  network_ = std::make_unique<net::Network>(
      *sim_, [oraclePtr](NodeIndex i) { return oraclePtr->online(i); },
      net::paperDefaultLatency(), rng_.fork("latency"));

  // Fault injection: consulted by the network and the shuffle channel at
  // every delivery-scheduling point. Absent a plan the pointer stays
  // null and those seams are byte-identical to a faultless build.
  if (!config.faultPlan.empty()) {
    fault_ = std::make_unique<fault::FaultInjector>(config.faultPlan);
    network_->setFaultInjector(fault_.get());
    attackTasks_.clear();
    for (std::size_t i = 0; i < config.faultPlan.attacks.size(); ++i) {
      attackTasks_.push_back(std::make_unique<sim::PeriodicTask>());
    }
  }

  // Availability monitoring.
  switch (config.backend) {
    case AvailabilityBackend::kOracle:
      service_ = oracle_.get();
      break;
    case AvailabilityBackend::kNoisy:
      serviceOwned_ = std::make_unique<avmon::NoisyAvailabilityService>(
          *oracle_, *sim_, config.noisyMaxError, kNoisyStaleness,
          rng_.fork("noisy-availability").next());
      service_ = serviceOwned_.get();
      break;
    case AvailabilityBackend::kAvmon:
      avmonSystem_ = std::make_unique<avmon::AvmonSystem>(*trace_, *sim_,
                                                          ids_, config.avmon);
      serviceOwned_ =
          std::make_unique<avmon::AvmonAvailabilityService>(*avmonSystem_);
      service_ = serviceOwned_.get();
      break;
  }

  // Availability PDF: the offline crawler artifact. Sampled from the
  // full-trace (long-term) availability of every host; N* = expected
  // online population = sum of availabilities.
  std::vector<double> availabilities;
  availabilities.reserve(n);
  double nStar = 0.0;
  for (NodeIndex i = 0; i < n; ++i) {
    const double a = trace_->fullAvailability(i);
    availabilities.push_back(a);
    nStar += a;
  }
  nStar = std::max(nStar, 2.0);
  AvailabilityPdf pdf =
      AvailabilityPdf::fromSamples(availabilities, nStar, kPdfBins);

  // Predicate. In coarse-view-overlay mode the membership list is the
  // shuffled view itself; an always-true predicate makes receiver-side
  // verification vacuous (no consistent relation exists to verify).
  if (config.useCoarseViewOverlay) {
    predicate_ = std::make_unique<AvmemPredicate>(makeRandomOverlayPredicate(
        std::move(pdf), 1.0, config.protocol.epsilon));
  } else {
    switch (config.predicate) {
    case PredicateChoice::kPaperDefault:
      predicate_ = std::make_unique<AvmemPredicate>(makePaperDefaultPredicate(
          std::move(pdf), config.protocol.epsilon, config.protocol.c1,
          config.protocol.c2));
      break;
    case PredicateChoice::kRandomOverlay: {
      double p = config.randomOverlayP;
      if (p <= 0.0) {
        // SCAMP-style sizing: alternative membership protocols maintain
        // (1 + c) * log(N) neighbors (SCAMP's provable connectivity
        // size; CYCLON/T-MAN are parameterized comparably). The pairwise
        // probability is taken over the *whole population* — the graph
        // is availability-agnostic, so offline-heavy nodes occupy list
        // slots in proportion to their numbers. This is the overlay the
        // paper compares against in Figure 10; pass randomOverlayP
        // explicitly to study other calibrations (see the ablation
        // bench).
        const double degree = (1.0 + config.protocol.c1) *
                              std::log(pdf.nStar());
        p = std::clamp(degree / static_cast<double>(n), 1e-6, 1.0);
      }
      predicate_ = std::make_unique<AvmemPredicate>(makeRandomOverlayPredicate(
          std::move(pdf), p, config.protocol.epsilon));
      break;
    }
    case PredicateChoice::kLogDecreasing:
      predicate_ = std::make_unique<AvmemPredicate>(makeLogDecreasingPredicate(
          std::move(pdf), config.protocol.epsilon, config.protocol.c1,
          config.protocol.c2));
      break;
    case PredicateChoice::kConstantSlivers: {
      const double d = config.protocol.c1 * std::log(pdf.nStar());
      predicate_ = std::make_unique<AvmemPredicate>(
          makeConstantSliversPredicate(std::move(pdf), d, d,
                                       config.protocol.epsilon));
      break;
    }
    }
  }

  ctx_ = std::make_unique<ProtocolContext>(
      *sim_, *service_, *predicate_, ids_,
      hashing::PairHasher(config.protocol.hashAlgorithm,
                          config.protocol.hashSeed),
      config.protocol);

  nodes_.reserve(n);
  for (NodeIndex i = 0; i < n; ++i) {
    nodes_.emplace_back(i, *ctx_);
  }

  // Parallel shard dispatch: the maintenance plan phase may fan out
  // across a worker pool. Every availability service answers queries as
  // pure reads and the pair hash is a pure function on every backend, so
  // the thread count never changes results (plan/commit is bit-identical
  // at any count), only how many cores the warm-up uses.
  const std::size_t threads = config.maintenanceThreads == 0
                                  ? sim::WorkerPool::defaultThreadCount()
                                  : config.maintenanceThreads;
  if (threads > 1) {
    pool_ = std::make_unique<sim::WorkerPool>(threads);
  }

  // The AVMON overlay shares the pool (its epoch-fold plan phase fans out
  // across it) and bills ping traffic through the network's stats/fault
  // seam.
  if (avmonSystem_ != nullptr) {
    avmonSystem_->setPool(pool_.get());
    avmonSystem_->attachWire(network_.get());
  }

  // The shuffle service shares the pool: its plan phase reads only the
  // node's own view, the oracle's per-epoch online table (through the
  // network), and counter-based RNG streams.
  avmon::ShuffleConfig shuffleConfig = config.shuffle;
  if (shuffleConfig.shards == 0) {
    shuffleConfig.shards = config.maintenanceShards;
  }
  shuffle_ = std::make_unique<avmon::ShuffleService>(
      *sim_, *network_, n, shuffleConfig, rng_.fork("shuffle"), pool_.get());

  // Availability-bucketed rendezvous candidate feed: the second Discovery
  // candidate seam. Draws read only the frozen directory snapshot, the
  // pure pair hash and the predicate, so the plan phase may call them
  // concurrently at any thread count; the feed adds no gate of its own.
  if (config.candidateFeed.enabled && !config.useCoarseViewOverlay) {
    feed_ = std::make_unique<CandidateFeed>(
        config.candidateFeed, n, *ctx_, rng_.fork("candidate-feed").next());
  }

  // Maintenance: the engine owns discovery/refresh for every node over a
  // sharded schedule — O(shards) timers in the event queue, not O(nodes).
  MembershipEngineConfig engineConfig;
  engineConfig.discoveryPeriod = config.protocol.discoveryPeriod;
  engineConfig.refreshPeriod = config.protocol.refreshPeriod;
  engineConfig.shards = config.maintenanceShards;
  engineConfig.coarseViewOverlay = config.useCoarseViewOverlay;
  engine_ = std::make_unique<MembershipEngine>(
      *sim_, nodes_, *shuffle_, *oracle_, engineConfig,
      rng_.fork("task-stagger"), pool_.get(), feed_.get());

  anycastEngine_ = std::make_unique<AnycastEngine>(
      *sim_, *network_, nodes_, rng_.fork("anycast"));
  multicastEngine_ = std::make_unique<MulticastEngine>(
      *sim_, *network_, nodes_, *anycastEngine_, *oracle_);
}

void AvmemSimulation::startAttackCampaigns() {
  for (std::size_t i = 0; i < attackTasks_.size(); ++i) {
    const fault::AttackStage& stage = config_.faultPlan.attacks[i];
    if (sim_->now().toMicros() >= stage.toUs) continue;  // window passed
    const std::int64_t firstUs =
        std::max(stage.fromUs, sim_->now().toMicros());
    attackTasks_[i]->start(*sim_, sim::SimTime::micros(firstUs),
                           sim::SimDuration::micros(stage.periodUs),
                           [this, i] { fireAttackStage(i); });
  }
}

void AvmemSimulation::fireAttackStage(std::size_t i) {
  const fault::AttackStage& stage = config_.faultPlan.attacks[i];
  if (sim_->now().toMicros() >= stage.toUs) {
    attackTasks_[i]->stop();  // campaign window closed
    return;
  }
  // Attacker choice is a pure function of (plan seed, stage, sweep
  // index) — the sweep counter lives in the injector so a mid-campaign
  // checkpoint resumes the exact attacker sequence. Bounded rejection
  // sampling finds an online attacker; an all-offline population just
  // wastes the sweep.
  const std::uint64_t sweepIdx = fault_->nextAttackSweep(i);
  sim::Rng r = fault_->attackerRng(i, sweepIdx);
  const auto n = static_cast<std::uint64_t>(nodes_.size());
  auto attacker = static_cast<NodeIndex>(r.below(n));
  for (int tries = 0; tries < 64 && !isOnline(attacker); ++tries) {
    attacker = static_cast<NodeIndex>(r.below(n));
  }
  if (!isOnline(attacker)) return;
  const VerificationSweep sweep = stage.flooding
                                      ? floodingAttack(*this, attacker)
                                      : legitimateTraffic(*this, attacker);
  fault_->recordSweep(sweep.targets, sweep.accepted);
}

void AvmemSimulation::warmup(sim::SimDuration duration) {
  if (!started_) {
    started_ = true;
    // Armed first: AVMON's epoch-boundary fold must order ahead of any
    // same-instant maintenance chain armed at t0, so queries at a
    // boundary observe the freshly folded counters.
    if (avmonSystem_ != nullptr) avmonSystem_->start();
    shuffle_->start();
    engine_->start();
    if (feed_ != nullptr) {
      feed_->start(*sim_, config_.protocol.discoveryPeriod);
    }
    if (fault_ != nullptr) startAttackCampaigns();
  }
  sim_->runUntil(sim_->now() + duration);
}

std::vector<NodeIndex> AvmemSimulation::onlineNodes() const {
  std::vector<NodeIndex> out;
  const auto n = static_cast<NodeIndex>(nodes_.size());
  for (NodeIndex i = 0; i < n; ++i) {
    if (isOnline(i)) out.push_back(i);
  }
  return out;
}

std::optional<NodeIndex> AvmemSimulation::pickInitiator(AvBand band) {
  // Both oracle reads are pure functions of the churn epoch, so the
  // eligible list holds for every call in one (epoch, band).
  const std::size_t epoch = trace_->epochAt(sim_->now());
  if (!pickCache_ || pickCache_->epoch != epoch || pickCache_->band != band) {
    pickCache_ = PickCache{epoch, band, {}};
    const auto n = static_cast<NodeIndex>(nodes_.size());
    for (NodeIndex i = 0; i < n; ++i) {
      if (!isOnline(i)) continue;
      if (band.contains(trueAvailability(i))) {
        pickCache_->eligible.push_back(i);
      }
    }
  }
  const std::vector<NodeIndex>& eligible = pickCache_->eligible;
  if (eligible.empty()) return std::nullopt;
  return eligible[rng_.index(eligible.size())];
}

AnycastResult AvmemSimulation::runAnycast(NodeIndex initiator,
                                          const AnycastParams& params) {
  if (!started_) warmup(sim::SimDuration::zero());
  std::optional<AnycastResult> result;
  anycastEngine_->start(initiator, params,
                        [&result](const AnycastResult& r) { result = r; });
  while (!result && sim_->pendingEvents() > 0) {
    sim_->step();
  }
  if (!result) {
    throw std::logic_error("runAnycast: operation never settled");
  }
  return *result;
}

AnycastBatchResult AvmemSimulation::runAnycastBatch(
    AvBand band, const AnycastParams& params, std::size_t count,
    sim::SimDuration stagger) {
  if (!started_) warmup(sim::SimDuration::zero());
  AnycastBatchResult batch;

  std::size_t launched = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const auto initiator = pickInitiator(band);
    if (!initiator) break;
    ++launched;
    const auto delay = stagger * static_cast<std::int64_t>(k);
    sim_->schedule(delay, [this, initiator = *initiator, params, &batch] {
      anycastEngine_->start(initiator, params,
                            [&batch](const AnycastResult& r) {
                              batch.results.push_back(r);
                            });
    });
  }

  // Every operation settles eventually (the engine's watchdog guarantees
  // it), and maintenance keeps the queue non-empty meanwhile.
  while (batch.results.size() < launched && sim_->pendingEvents() > 0) {
    sim_->step();
  }
  return batch;
}

MulticastResult AvmemSimulation::runMulticast(NodeIndex initiator,
                                              const MulticastParams& params) {
  if (!started_) warmup(sim::SimDuration::zero());
  const auto handle = multicastEngine_->launch(initiator, params);
  run(MulticastEngine::horizon(params));
  return multicastEngine_->finalize(handle);
}

double AvmemSimulation::expectedDegree(double av) const {
  const auto& pdf = predicate_->pdf();
  const auto& h = pdf.histogram();
  const auto owner = predicate_->at(av);
  double degree = 0.0;
  for (std::size_t j = 0; j < h.binCount(); ++j) {
    const double b = h.binMid(j);
    degree += owner.f(b) * pdf.nStar() * h.fraction(j);
  }
  return degree;
}

}  // namespace avmem::core
