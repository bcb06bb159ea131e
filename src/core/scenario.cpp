#include "core/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "fault/fault_plan.hpp"

namespace avmem::core {

namespace {

/// Apply the caller's host/seed overrides to an already-built scenario.
void applyCommonTuning(Scenario& s, const ScenarioTuning& tuning) {
  if (tuning.hosts != 0) s.config.trace.hosts = tuning.hosts;
  if (tuning.seed != 0) s.config.seed = tuning.seed;
}

/// The Middleware 2007 evaluation setup (fig_common.hpp's former
/// hand-rolled block): 1442 hosts, 7-day synthetic Overnet trace, AVMON
/// monitoring, SHA-1 pair hash, 24 h warm-up.
Scenario buildPaperDefault(const ScenarioTuning& tuning) {
  Scenario s;
  s.name = "paper-default";
  s.config.trace.hosts = 1442;
  s.config.backend = AvailabilityBackend::kAvmon;
  s.config.predicate = PredicateChoice::kPaperDefault;
  s.config.seed = 20070101;  // Middleware 2007 vintage
  s.warmup = sim::SimDuration::hours(24);
  if (tuning.fast) {
    s.config.trace.hosts = 400;
    s.warmup = sim::SimDuration::hours(4);
  }
  applyCommonTuning(s, tuning);
  return s;
}

/// A compact oracle-backed world: the configuration most unit/integration
/// tests and quick demos use (isolates protocol behaviour from estimate
/// noise).
Scenario buildOracleSmall(const ScenarioTuning& tuning) {
  Scenario s;
  s.name = "oracle-small";
  s.config.trace.hosts = 150;
  s.config.backend = AvailabilityBackend::kOracle;
  s.config.seed = 51;
  s.warmup = sim::SimDuration::hours(6);
  if (tuning.fast) s.warmup = sim::SimDuration::hours(3);
  applyCommonTuning(s, tuning);
  return s;
}

/// Noisy monitoring for verification/cushion studies (Figures 5-6).
Scenario buildNoisyVerification(const ScenarioTuning& tuning) {
  Scenario s = buildOracleSmall(tuning);
  s.name = "noisy-verification";
  s.config.backend = AvailabilityBackend::kNoisy;
  s.config.noisyMaxError = 0.05;
  return s;
}

/// The Figure-10 comparator: raw shuffled coarse views as membership.
Scenario buildCoarseViewBaseline(const ScenarioTuning& tuning) {
  Scenario s = buildPaperDefault(tuning);
  s.name = "coarse-view-baseline";
  s.config.useCoarseViewOverlay = true;
  return s;
}

/// The consistent-random overlay (SCAMP-sized), the other Figure-10 line.
Scenario buildRandomOverlay(const ScenarioTuning& tuning) {
  Scenario s = buildPaperDefault(tuning);
  s.name = "random-overlay";
  s.config.predicate = PredicateChoice::kRandomOverlay;
  return s;
}

Scenario buildScale(std::uint32_t hosts, const ScenarioTuning& tuning) {
  Scenario s = makeScaleScenario(tuning.hosts != 0 ? tuning.hosts : hosts,
                                 tuning.seed != 0 ? tuning.seed : 20070101);
  if (tuning.fast) {
    s.config.trace.hosts = std::min<std::uint32_t>(s.config.trace.hosts, 2000);
    s.warmup = sim::SimDuration::minutes(30);
  }
  return s;
}

/// Scale mode with the real AVMON overlay instead of the oracle: the
/// monitoring substrate itself is the thing under test, at populations the
/// legacy eager O(N^2) construction could never reach. kFast64 backs both
/// the AVMEM predicate and the monitor relation (distinct seeds); queries
/// materialize monitor cells lazily, so a run's hash cost is proportional
/// to the targets actually queried, not N^2 — at 1M hosts a full-coverage
/// sweep is still O(N^2) hash work, so the 1m entry is deliberately
/// expensive and the sweep samples coverage instead.
Scenario buildScaleAvmon(std::uint32_t hosts, const ScenarioTuning& tuning) {
  Scenario s = buildScale(hosts, tuning);
  s.name = "scale-avmon-" + s.name.substr(std::string_view("scale-").size());
  s.config.backend = AvailabilityBackend::kAvmon;
  s.config.avmon.hashAlgorithm = hashing::PairHashAlgorithm::kFast64;
  // Independent of the protocol hash stream (…+ 1) by construction.
  s.config.avmon.hashSeed = s.config.seed * 0x9E3779B97F4A7C15ull + 2;
  return s;
}

/// The three built-in hostile campaigns, in escalating order.
enum class ChaosLevel { kLoss, kOutage, kStorm };

/// Hostile-campaign scenarios: the scale-100k setup plus a built-in fault
/// plan whose stage windows sit just past the warm-up, so the campaign
/// always hits a *converged* overlay and reconvergence is measurable.
/// Windows are composed from the (fast-adjusted) warm-up — smoke mode
/// shrinks both the population and the campaign timeline together — and
/// are placed so the outage and flash-crowd windows land on distinct
/// 20-minute epochs after quantization (the outage overlay rejects
/// forcing-window overlap).
Scenario buildChaos(ChaosLevel level, const ScenarioTuning& tuning) {
  Scenario s = buildScale(100'000, tuning);
  const double w = s.warmup.toHours();
  char text[1536];
  switch (level) {
    case ChaosLevel::kLoss:
      s.name = "chaos-loss";
      std::snprintf(text, sizeof(text),
                    "[loss]\n"
                    "from_h = %.4f\nto_h = %.4f\n"
                    "drop = 0.30\nduplicate = 0.05\n"
                    "delay = 0.10\ndelay_max_ms = 200\n",
                    w + 0.2, w + 0.7);
      break;
    case ChaosLevel::kOutage:
      s.name = "chaos-outage";
      std::snprintf(text, sizeof(text),
                    "[loss]\nfrom_h = %.4f\nto_h = %.4f\ndrop = 0.20\n"
                    "\n[outage]\nfrom_h = %.4f\nto_h = %.4f\n"
                    "region = 2\nfraction = 1.0\n",
                    w + 0.2, w + 0.9,   // loss window
                    w + 0.25, w + 0.6);  // regional blackout inside it
      break;
    case ChaosLevel::kStorm:
      s.name = "chaos-storm";
      std::snprintf(text, sizeof(text),
                    "[loss]\nfrom_h = %.4f\nto_h = %.4f\n"
                    "drop = 0.30\nduplicate = 0.05\n"
                    "delay = 0.10\ndelay_max_ms = 200\n"
                    "\n[outage]\nfrom_h = %.4f\nto_h = %.4f\n"
                    "region = 2\nfraction = 1.0\n"
                    "\n[flashcrowd]\nfrom_h = %.4f\nto_h = %.4f\n"
                    "fraction = 0.25\n"
                    "\n[attack]\nfrom_h = %.4f\nto_h = %.4f\n"
                    "period_s = 60\nkind = flooding\n",
                    w + 0.2, w + 1.0,    // sustained loss
                    w + 0.25, w + 0.6,   // regional blackout
                    w + 1.1, w + 1.4,    // flash crowd (post-outage epochs)
                    w + 0.2, w + 1.0);   // flooding sweeps alongside loss
      break;
  }
  s.config.faultPlan = fault::parseFaultPlanText(text);
  return s;
}

/// One registry entry: metadata plus the builder.
struct ScenarioEntry {
  std::string_view name;
  std::string_view summary;
  Scenario (*build)(const ScenarioTuning&);
};

/// The registry: every built-in scenario, in documentation order.
constexpr ScenarioEntry kScenarios[] = {
  {"paper-default",
   "Middleware 2007 evaluation setup: 1442 hosts, AVMON, SHA-1, 24h "
   "warm-up",
   buildPaperDefault},
  {"oracle-small",
   "150 hosts over ground-truth availability: quick protocol studies",
   buildOracleSmall},
  {"noisy-verification",
   "oracle-small with bounded monitoring noise (Figures 5-6 regime)",
   buildNoisyVerification},
  {"coarse-view-baseline",
   "raw shuffled views as membership (Figure-10 comparator)",
   buildCoarseViewBaseline},
  {"random-overlay",
   "consistent-random SCAMP-sized overlay (Figure-10 comparator)",
   buildRandomOverlay},
  {"scale-10k",
   "scale mode at 10k nodes: oracle + kFast64 + shards + Markov churn",
   [](const ScenarioTuning& t) { return buildScale(10'000, t); }},
  {"scale-100k",
   "scale mode at 100k nodes: oracle + kFast64 + shards + Markov churn",
   [](const ScenarioTuning& t) { return buildScale(100'000, t); }},
  {"scale-1m",
   "scale mode at 1M nodes: oracle + kFast64 + shards + Markov churn",
   [](const ScenarioTuning& t) { return buildScale(1'000'000, t); }},
  {"scale-avmon-100k",
   "scale mode at 100k nodes with the real AVMON overlay (lazy monitor "
   "cells, epoch-fold estimates, wire-billed pings)",
   [](const ScenarioTuning& t) { return buildScaleAvmon(100'000, t); }},
  {"scale-avmon-1m",
   "scale mode at 1M nodes with the real AVMON overlay (expensive: "
   "full query coverage implies O(N^2) monitor-hash work)",
   [](const ScenarioTuning& t) { return buildScaleAvmon(1'000'000, t); }},
  {"chaos-loss",
   "scale-100k under a 30% loss / 5% duplication / delay-jitter window",
   [](const ScenarioTuning& t) { return buildChaos(ChaosLevel::kLoss, t); }},
  {"chaos-outage",
   "scale-100k under 20% loss plus a full regional blackout",
   [](const ScenarioTuning& t) { return buildChaos(ChaosLevel::kOutage, t); }},
  {"chaos-storm",
   "scale-100k under loss + regional blackout + flash crowd + flooding "
   "attack sweeps",
   [](const ScenarioTuning& t) { return buildChaos(ChaosLevel::kStorm, t); }},
};

}  // namespace

Scenario makeScaleScenario(std::uint32_t hosts, std::uint64_t seed) {
  Scenario s;
  s.name = "scale-" + std::to_string(hosts);
  s.config.seed = seed;

  // One day of churn is plenty to drive maintenance; the 7-day paper trace
  // only buys long-term-availability convergence the scale study does not
  // measure.
  s.config.trace.hosts = hosts;
  s.config.trace.epochs = 72;  // 1 day at 20-minute epochs
  s.config.trace.seed = seed ^ 0x5CA1Eull;

  // Streaming Markov churn: per-host chains generated on demand, O(hosts)
  // memory however long the trace — the backend that unlocked the 1M-node
  // default point (a recorded timeline is first generated as a 1M x 72
  // byte matrix, ~100 MB; the model is tens of MB).
  s.config.traceBackend = TraceBackend::kMarkov;

  // Oracle availability: monitoring-substrate accuracy is a paper-fidelity
  // concern; at scale it would only obscure the maintenance cost.
  s.config.backend = AvailabilityBackend::kOracle;

  // The scale-mode pair hash: seeded fast mixer instead of SHA-1.
  s.config.protocol.hashAlgorithm = hashing::PairHashAlgorithm::kFast64;
  s.config.protocol.hashSeed = seed * 0x9E3779B97F4A7C15ull + 1;

  // Compact, fast-churning views: discovery coverage per round is bounded
  // by view churn, so a small view with a large gossip exchange finds new
  // candidates at the same rate while keeping per-round scan cost and
  // memory O(64) per node instead of O(sqrt(N)).
  s.config.shuffle.viewSize = 64;
  s.config.shuffle.gossipLength = 32;

  // Availability-bucketed rendezvous candidate feed: compact uniform
  // views alone leave Discovery unconverged at 100k+ (mean degree < 1
  // after 2 sim-hours); predicate-matched bucket draws restore the
  // paper's overlay at scale. paper-* scenarios keep it off — the paper's
  // Discovery consumes only the coarse view.
  s.config.candidateFeed.enabled = true;

  // Auto-sharded maintenance (O(256) timers regardless of N).
  s.config.maintenanceShards = 0;

  // Parallel plan-phase dispatch on every core (0 = hardware_concurrency):
  // the scale read paths (oracle service, kFast64 hash, Markov churn) are
  // all concurrency-safe, and results are thread-count-invariant by
  // construction. Paper scenarios keep the serial default of 1.
  s.config.maintenanceThreads = 0;

  s.warmup = sim::SimDuration::hours(2);
  return s;
}

Scenario makeScenario(std::string_view name, const ScenarioTuning& tuning) {
  for (const ScenarioEntry& entry : kScenarios) {
    if (entry.name == name) return entry.build(tuning);
  }
  throw std::out_of_range("makeScenario: unknown scenario '" +
                          std::string(name) + "'");
}

std::vector<std::string_view> scenarioNames() {
  std::vector<std::string_view> out;
  for (const ScenarioEntry& entry : kScenarios) out.push_back(entry.name);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace avmem::core
