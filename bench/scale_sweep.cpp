// Scale sweep: how far past the paper's 1442 hosts does the system go?
// Default answer: one million nodes.
//
// For each population size the sweep builds the scale-mode scenario
// (oracle availability, kFast64 pair hash, compact fast-churning views,
// sharded maintenance, streaming Markov churn, parallel plan-phase
// dispatch — see core/scenario.hpp), warms it up, then runs a MID-band
// anycast batch, reporting wall-clock per phase plus the numbers the
// scale work is about:
//
//  * maintenance timers in the event queue — O(shards), flat in N;
//  * event and predicate-evaluation throughput — the hash is off the
//    critical path with kFast64, and the plan phase fans out across
//    every core (threads column; identical results at any count);
//  * availability-model resident memory — O(hosts) with the Markov
//    backend, which is what makes the 1M default point fit (a recorded
//    1M-host timeline is first generated as a byte matrix, one byte per
//    host-epoch, before the system even starts).
//
// Usage:
//   scale_sweep [--smoke] [--json out.json]
//               [--checkpoint-out warm.avmem] [--checkpoint-in warm.avmem]
//     --smoke       AVMEM_FAST=1 footprint
//     --json PATH   additionally write machine-readable per-point results
//                   (CI stores this as BENCH_scale.json to track the perf
//                   trajectory across PRs)
//     --checkpoint-out PATH  save a warm-state checkpoint at the end of
//                   each point's warm-up (snapshot/checkpoint.hpp); with
//                   several N the path gets a ".N<hosts>" suffix per point
//     --checkpoint-in PATH   skip the warm-up: restore the warm state from
//                   PATH instead (same per-point suffix rule). The restore
//                   wall is reported as restore_s; every simulation-visible
//                   statistic is bit-identical to the run that saved it
//
// Environment:
//   AVMEM_SCALE_NS        comma list of population sizes
//                         (default "10000,100000,1000000")
//   AVMEM_SCALE_SEED      base RNG seed (default 20070101)
//   AVMEM_TRACE_BACKEND   recorded | markov
//                         (default: the scenario's choice, markov)
//   AVMEM_THREADS         maintenance plan-phase threads
//                         (default 0 = every core; 1 = serial)
//   AVMEM_SHUFFLE_PERIOD_S  override the shuffle period in whole seconds,
//                         1 .. 31536000 (one year) — small values make the
//                         run gossip-dominated (CI uses this to gate the
//                         batched shuffle path); anything else is ignored
//                         with a warning
//   AVMEM_AVAIL_BACKEND   oracle | avmon — availability substrate
//                         (default oracle; avmon swaps in the real
//                         monitoring overlay, scale-avmon-* style, and
//                         fills the avmon_mae / avmon_p99_err /
//                         avmon_coverage / pings_* columns)
//   AVMEM_CHECKPOINT      like --checkpoint-in (the flag wins)
//   AVMEM_CHECKPOINT_OUT  like --checkpoint-out (the flag wins)
//   AVMEM_FAST=1          smoke footprint: "2000" nodes, 30 min warm-up
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench/fig_common.hpp"
#include "core/scenario.hpp"
#include "core/simulation.hpp"

namespace {

using namespace avmem;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<std::uint32_t> populationSizes(bool fast) {
  std::string spec = fast ? "2000" : "10000,100000,1000000";
  if (const char* ns = std::getenv("AVMEM_SCALE_NS"); ns != nullptr) {
    spec = ns;
  }
  std::vector<std::uint32_t> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!token.empty()) {
      const auto n =
          static_cast<std::uint32_t>(std::strtoul(token.c_str(), nullptr, 10));
      if (n >= 2) {
        out.push_back(n);
      } else {
        std::cerr << "scale_sweep: ignoring AVMEM_SCALE_NS entry '" << token
                  << "' (need an integer >= 2)\n";
      }
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// AVMEM_SHUFFLE_PERIOD_S: a whole number of seconds in [1, one year].
/// Trailing junk ("600s", "1e3") and out-of-range values are rejected
/// loudly rather than truncated — SimDuration::seconds would overflow
/// far above the cap.
std::optional<std::int64_t> shufflePeriodFromEnv() {
  const char* sp = std::getenv("AVMEM_SHUFFLE_PERIOD_S");
  if (sp == nullptr) return std::nullopt;
  constexpr long long kMaxPeriodS = 365LL * 24 * 3600;
  char* end = nullptr;
  const long long v = std::strtoll(sp, &end, 10);
  if (end == sp || *end != '\0' || v < 1 || v > kMaxPeriodS) {
    std::cerr << "scale_sweep: ignoring AVMEM_SHUFFLE_PERIOD_S='" << sp
              << "' (want an integer in [1, " << kMaxPeriodS << "])\n";
    return std::nullopt;
  }
  return static_cast<std::int64_t>(v);
}

/// One sweep point, as printed and as serialized to --json.
///
/// The JSON record is self-contained on purpose: seed, trace backend, and
/// the shuffle/feed knob values ride along per point so two archived runs
/// can be diffed (tools/check_sim_equivalence.py) without reconstructing
/// the environment that produced them.
struct PointResult {
  std::uint32_t n = 0;
  std::string backend;
  std::uint64_t seed = 0;
  std::size_t threads = 1;
  std::int64_t shufflePeriodS = 0;
  std::size_t shuffleViewSize = 0;
  std::size_t shuffleGossipLength = 0;
  bool feedEnabled = false;
  std::size_t feedHorizontalBudget = 0;
  std::size_t feedVerticalBudget = 0;
  double modelMb = 0.0;
  double buildS = 0.0;
  double warmupS = 0.0;
  double restoreS = 0.0;  ///< checkpoint-restore wall (0 = warmed up fresh)
  double warmupSimH = 0.0;
  std::uint64_t events = 0;
  double eventsPerS = 0.0;
  double planS = 0.0;    ///< warm-up wall in the parallelizable plan phase
  double commitS = 0.0;  ///< warm-up wall in the serial commit phase
  double planShare = 0.0;  ///< planS / warmupS — the Amdahl-scalable part
  double planNodesPerS = 0.0;  ///< members planned / plan wall (kernel rate)
  double planSlotP50Ms = 0.0;  ///< per-slot-firing plan wall, median
  double planSlotP99Ms = 0.0;  ///< per-slot-firing plan wall, 99th pct
  std::size_t maintTimers = 0;
  std::uint64_t completedShuffles = 0;
  std::uint64_t viewDigest = 0;  ///< order-sensitive hash over all views
  double meanDegree = 0.0;       ///< mean HS+VS degree (convergence gauge)
  double hsDegree = 0.0;         ///< mean horizontal-sliver degree
  std::uint64_t feedCandidates = 0;  ///< rendezvous-feed draws evaluated
  /// Wire failure counters (net::NetworkStats): receiver-side rejections,
  /// offline drops, ack timeouts, and — nonzero only under a fault plan —
  /// injected duplications and drops. All thread-invariant.
  std::uint64_t wireRejected = 0;
  std::uint64_t wireDroppedOffline = 0;
  std::uint64_t wireAckTimeouts = 0;
  std::uint64_t wireDuplicated = 0;
  std::uint64_t wireInjectedDrops = 0;
  std::size_t anycasts = 0;
  double deliveredFraction = 0.0;
  double batchS = 0.0;
  /// Availability substrate ("oracle" or "avmon") and — nonzero only for
  /// avmon — estimate accuracy vs the ground-truth oracle over a sampled
  /// querier/target set, plus the overlay's monitoring-traffic bill.
  std::string availBackend;
  double avmonMae = 0.0;       ///< mean |estimate - oracle truth|
  double avmonP99Err = 0.0;    ///< 99th-percentile absolute error
  double avmonCoverage = 0.0;  ///< sampled queries that got an answer
  std::uint64_t pingsSent = 0;
  std::uint64_t pingsDelivered = 0;
  std::uint64_t pingBytes = 0;
};

void writeJson(const std::string& path, const std::vector<PointResult>& points,
               std::uint64_t seed) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "scale_sweep: cannot write '" << path << "'\n";
    return;
  }
  out << "{\n  \"bench\": \"scale_sweep\",\n  \"seed\": " << seed
      << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointResult& p = points[i];
    out << "    {\"n\": " << p.n << ", \"backend\": \"" << p.backend
        << "\", \"trace_backend\": \"" << p.backend
        << "\", \"seed\": " << p.seed << ", \"threads\": " << p.threads
        << ", \"shuffle_period_s\": " << p.shufflePeriodS
        << ", \"shuffle_view_size\": " << p.shuffleViewSize
        << ", \"shuffle_gossip_length\": " << p.shuffleGossipLength
        << ", \"feed_enabled\": " << (p.feedEnabled ? "true" : "false")
        << ", \"feed_h_budget\": " << p.feedHorizontalBudget
        << ", \"feed_v_budget\": " << p.feedVerticalBudget
        << ", \"model_mb\": " << p.modelMb
        << ", \"build_s\": " << p.buildS << ", \"warmup_s\": " << p.warmupS
        << ", \"restore_s\": " << p.restoreS
        << ", \"warmup_sim_h\": " << p.warmupSimH
        << ", \"events\": " << p.events
        << ", \"events_per_s\": " << p.eventsPerS
        << ", \"plan_s\": " << p.planS << ", \"commit_s\": " << p.commitS
        << ", \"plan_share\": " << p.planShare
        << ", \"plan_nodes_per_s\": " << p.planNodesPerS
        << ", \"plan_slot_p50_ms\": " << p.planSlotP50Ms
        << ", \"plan_slot_p99_ms\": " << p.planSlotP99Ms
        << ", \"maint_timers\": " << p.maintTimers
        << ", \"completed_shuffles\": " << p.completedShuffles
        << ", \"view_digest\": " << p.viewDigest
        << ", \"mean_degree\": " << p.meanDegree
        << ", \"hs_degree\": " << p.hsDegree
        << ", \"feed_candidates\": " << p.feedCandidates
        << ", \"rejected\": " << p.wireRejected
        << ", \"dropped_offline\": " << p.wireDroppedOffline
        << ", \"ack_timeouts\": " << p.wireAckTimeouts
        << ", \"duplicated\": " << p.wireDuplicated
        << ", \"injected_drops\": " << p.wireInjectedDrops
        << ", \"anycasts\": " << p.anycasts
        << ", \"delivered_fraction\": " << p.deliveredFraction
        << ", \"batch_s\": " << p.batchS
        << ", \"avail_backend\": \"" << p.availBackend << "\""
        << ", \"avmon_mae\": " << p.avmonMae
        << ", \"avmon_p99_err\": " << p.avmonP99Err
        << ", \"avmon_coverage\": " << p.avmonCoverage
        << ", \"pings_sent\": " << p.pingsSent
        << ", \"pings_delivered\": " << p.pingsDelivered
        << ", \"ping_bytes\": " << p.pingBytes << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cerr << "scale_sweep: wrote " << points.size() << " point(s) to "
            << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = [] {
    const char* f = std::getenv("AVMEM_FAST");
    return f != nullptr && f[0] == '1';
  }();
  std::optional<std::string> jsonPath;
  std::optional<std::string> checkpointIn;
  std::optional<std::string> checkpointOut;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      fast = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint-in") == 0 && i + 1 < argc) {
      checkpointIn = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint-out") == 0 &&
               i + 1 < argc) {
      checkpointOut = argv[++i];
    } else {
      std::cerr << "scale_sweep: unknown argument '" << argv[i]
                << "' (usage: scale_sweep [--smoke] [--json out.json]"
                   " [--checkpoint-out warm.avmem]"
                   " [--checkpoint-in warm.avmem])\n";
      return 2;
    }
  }
  if (!checkpointIn) {
    if (const char* p = std::getenv("AVMEM_CHECKPOINT");
        p != nullptr && *p != '\0') {
      checkpointIn = p;
    }
  }
  if (!checkpointOut) {
    if (const char* p = std::getenv("AVMEM_CHECKPOINT_OUT");
        p != nullptr && *p != '\0') {
      checkpointOut = p;
    }
  }
  std::uint64_t seed = 20070101;
  if (const char* s = std::getenv("AVMEM_SCALE_SEED"); s != nullptr) {
    seed = std::strtoull(s, nullptr, 10);
  }
  const auto backend = benchfig::traceBackendFromEnv("scale_sweep");

  // Availability substrate: the oracle (scale default) or the real AVMON
  // overlay (scale-avmon-* style). Unrecognized values fail loudly.
  bool useAvmon = false;
  if (const char* ab = std::getenv("AVMEM_AVAIL_BACKEND");
      ab != nullptr && *ab != '\0') {
    if (std::strcmp(ab, "avmon") == 0) {
      useAvmon = true;
    } else if (std::strcmp(ab, "oracle") != 0) {
      std::cerr << "scale_sweep: unknown AVMEM_AVAIL_BACKEND='" << ab
                << "' (want oracle or avmon)\n";
      return 2;
    }
  }

  std::cout << "# scale_sweep: maintenance + anycast throughput vs N\n";
  std::cout << "# scale mode: oracle availability, kFast64 pair hash, "
               "sharded maintenance, parallel plan dispatch, "
            << (backend ? core::traceBackendName(*backend) : "markov")
            << " availability backend\n";
  std::cout << "# n backend threads model_mb build_s warmup_s restore_s "
               "warmup_sim_h "
               "events events_per_s plan_s commit_s plan_share "
               "plan_nodes_per_s plan_slot_p50_ms "
               "plan_slot_p99_ms maint_timers "
               "completed_shuffles view_digest mean_degree hs_degree "
               "feed_candidates rejected dropped_offline ack_timeouts "
               "duplicated injected_drops anycasts delivered batch_s "
               "avail_backend avmon_mae avmon_p99_err avmon_coverage "
               "pings_sent pings_delivered ping_bytes\n";

  const std::optional<std::int64_t> shufflePeriodS = shufflePeriodFromEnv();

  const std::vector<std::uint32_t> sizes = populationSizes(fast);
  // With several populations one checkpoint path cannot serve them all:
  // suffix per point so a sweep saves/restores a file per N.
  const auto pointPath = [&sizes](const std::string& base, std::uint32_t n) {
    return sizes.size() > 1 ? base + ".N" + std::to_string(n) : base;
  };

  std::vector<PointResult> points;
  for (const std::uint32_t n : sizes) {
    auto scenario = core::makeScaleScenario(n, seed);
    if (useAvmon) {
      // Mirror the scale-avmon-* registry entries: the monitor relation
      // hashes through kFast64 on a stream independent of the protocol
      // hash (… + 1) by construction.
      scenario.config.backend = core::AvailabilityBackend::kAvmon;
      scenario.config.avmon.hashAlgorithm =
          hashing::PairHashAlgorithm::kFast64;
      scenario.config.avmon.hashSeed =
          scenario.config.seed * 0x9E3779B97F4A7C15ull + 2;
    }
    if (fast) scenario.warmup = sim::SimDuration::minutes(30);
    if (backend) scenario.config.traceBackend = *backend;
    if (shufflePeriodS) {
      scenario.config.shuffle.period = sim::SimDuration::seconds(*shufflePeriodS);
    }
    // The sweep drives save/restore itself (per-point paths, timed as a
    // separate column); clear whatever the AVMEM_CHECKPOINT* environment
    // put in the config so warmup() does not also act on it.
    scenario.config.checkpointIn.clear();
    scenario.config.checkpointOut.clear();
    std::cerr << "building " << scenario.name << " ("
              << core::traceBackendName(scenario.config.traceBackend)
              << " availability backend)...\n";

    const auto tBuild = Clock::now();
    core::AvmemSimulation system(scenario.config);
    const double buildS = secondsSince(tBuild);
    const double modelMb =
        static_cast<double>(system.trace().memoryFootprintBytes()) /
        (1024.0 * 1024.0);

    double warmupS = 0.0;
    double restoreS = 0.0;
    if (checkpointIn) {
      const std::string path = pointPath(*checkpointIn, n);
      std::cerr << "restoring warm state from " << path << "...\n";
      const auto tRestore = Clock::now();
      try {
        system.restoreCheckpoint(path);
      } catch (const std::exception& e) {
        std::cerr << "scale_sweep: checkpoint restore failed: " << e.what()
                  << "\n";
        return 1;
      }
      restoreS = secondsSince(tRestore);
      std::cerr << "restored in " << restoreS << " s (vs a fresh "
                << scenario.warmup.toString() << " warm-up)\n";
    } else {
      std::cerr << "warming up " << scenario.warmup.toString()
                << " simulated (" << system.maintenanceThreads()
                << " plan thread(s))...\n";
      const auto tWarm = Clock::now();
      system.warmup(scenario.warmup);
      warmupS = secondsSince(tWarm);
      if (checkpointOut) {
        const std::string path = pointPath(*checkpointOut, n);
        std::cerr << "saving warm state to " << path << "...\n";
        try {
          system.saveCheckpoint(path);
        } catch (const std::exception& e) {
          std::cerr << "scale_sweep: checkpoint save failed: " << e.what()
                    << "\n";
          return 1;
        }
      }
    }
    const std::uint64_t warmupEvents = system.simulator().executedEvents();
    // Plan/commit walls aggregate discovery + refresh + the batched
    // shuffle exchanges (all three ride the same barrier-mode wheel).
    const double planS = system.membershipEngine().planWallSeconds() +
                         system.shuffleService().planWallSeconds();
    const double commitS = system.membershipEngine().commitWallSeconds() +
                           system.shuffleService().commitWallSeconds();

    // Kernel detail, merged over the three timing wheels
    // (discovery, refresh, shuffle initiation).
    const sim::ShardedScheduler* wheels[] = {
        &system.membershipEngine().discoveryScheduler(),
        &system.membershipEngine().refreshScheduler(),
        &system.shuffleService().scheduler()};
    std::uint64_t plannedMembers = 0;
    std::vector<std::uint64_t> slotNs;
    for (const sim::ShardedScheduler* w : wheels) {
      plannedMembers += w->plannedMembers();
      const auto& samples = w->planWallSamplesNs();
      slotNs.insert(slotNs.end(), samples.begin(), samples.end());
    }
    std::sort(slotNs.begin(), slotNs.end());
    const auto percentileMs = [&slotNs](double q) {
      if (slotNs.empty()) return 0.0;
      const auto idx = static_cast<std::size_t>(
          q * static_cast<double>(slotNs.size() - 1));
      return static_cast<double>(slotNs[idx]) * 1e-6;
    };

    // Mean degree over a fixed-size sample (full scans are O(N) and tell
    // the same story). hs_degree separates the harder convergence target:
    // the ±eps horizontal band is what uniform views starve.
    const std::size_t sample = std::min<std::size_t>(n, 2000);
    double degree = 0.0;
    double hsDegree = 0.0;
    for (std::size_t i = 0; i < sample; ++i) {
      const auto& node = system.node(static_cast<net::NodeIndex>(i));
      degree += static_cast<double>(node.degree());
      hsDegree += static_cast<double>(node.horizontalSliver().size());
    }
    degree /= static_cast<double>(sample);
    hsDegree /= static_cast<double>(sample);

    // AVMON accuracy vs the ground-truth oracle, over the same sampled
    // prefix: each sampled target is queried by its neighbour (a live
    // querier-dependent path, not a private backdoor) and compared to the
    // trace's fraction-uptime truth at the current instant. Also the
    // moment the lazy monitor cells materialize, so the ping columns
    // below reflect catch-up-free billing from here on.
    double avmonMae = 0.0;
    double avmonP99 = 0.0;
    double avmonCoverage = 0.0;
    if (useAvmon) {
      std::vector<double> errs;
      errs.reserve(sample);
      for (std::size_t i = 0; i < sample; ++i) {
        const auto target = static_cast<net::NodeIndex>(i);
        const auto querier = static_cast<net::NodeIndex>((i + 1) % n);
        const auto est =
            system.availabilityService().query(querier, target);
        if (!est) continue;
        const double truth =
            system.trace().availabilityAt(target, system.simulator().now());
        errs.push_back(std::abs(*est - truth));
      }
      avmonCoverage =
          static_cast<double>(errs.size()) / static_cast<double>(sample);
      if (!errs.empty()) {
        std::sort(errs.begin(), errs.end());
        double sum = 0.0;
        for (const double e : errs) sum += e;
        avmonMae = sum / static_cast<double>(errs.size());
        avmonP99 = errs[static_cast<std::size_t>(
            0.99 * static_cast<double>(errs.size() - 1))];
      }
    }

    // The proof that maintenance pressure is O(shards): periodic timers
    // the engine keeps in the queue, independent of N.
    const std::size_t maintTimers =
        system.membershipEngine().scheduledTimerCount();

    // Order-sensitive digest over every coarse view: the thread-matrix CI
    // diff turns any shuffle divergence into a failure.
    const std::uint64_t viewDigest = system.shuffleService().viewDigest();

    std::cerr << "anycast batch...\n";
    core::AnycastParams params;
    params.range = core::AvRange::threshold(0.7);
    params.strategy = core::AnycastStrategy::kRetriedGreedy;
    const auto tBatch = Clock::now();
    const auto batch = system.runAnycastBatch(core::AvBand::mid(), params,
                                              fast ? 10 : 20);
    const double batchS = secondsSince(tBatch);

    PointResult p;
    p.n = n;
    p.backend = core::traceBackendName(scenario.config.traceBackend);
    p.seed = scenario.config.seed;
    p.threads = system.maintenanceThreads();
    p.shufflePeriodS =
        scenario.config.shuffle.period.toMicros() / 1'000'000;
    p.shuffleViewSize = scenario.config.shuffle.viewSize;
    p.shuffleGossipLength = scenario.config.shuffle.gossipLength;
    p.feedEnabled = scenario.config.candidateFeed.enabled;
    p.feedHorizontalBudget =
        scenario.config.candidateFeed.horizontalScanBudget;
    p.feedVerticalBudget = scenario.config.candidateFeed.verticalScanBudget;
    p.modelMb = modelMb;
    p.buildS = buildS;
    p.warmupS = warmupS;
    p.restoreS = restoreS;
    p.warmupSimH = scenario.warmup.toHours();
    p.events = warmupEvents;
    p.eventsPerS = warmupS > 0.0
                       ? static_cast<double>(warmupEvents) / warmupS
                       : 0.0;
    p.planS = planS;
    p.commitS = commitS;
    p.planShare = warmupS > 0.0 ? planS / warmupS : 0.0;
    p.planNodesPerS =
        planS > 0.0 ? static_cast<double>(plannedMembers) / planS : 0.0;
    p.planSlotP50Ms = percentileMs(0.50);
    p.planSlotP99Ms = percentileMs(0.99);
    p.maintTimers = maintTimers;
    p.completedShuffles = system.shuffleService().completedShuffles();
    p.viewDigest = viewDigest;
    p.meanDegree = degree;
    p.hsDegree = hsDegree;
    p.feedCandidates = system.membershipEngine().stats().feedCandidates;
    const net::NetworkStats& ws = system.network().stats();
    p.wireRejected = ws.rejected;
    p.wireDroppedOffline = ws.droppedOffline;
    p.wireAckTimeouts = ws.ackTimeouts;
    p.wireDuplicated = ws.duplicated;
    p.wireInjectedDrops = ws.injectedDrops;
    p.anycasts = batch.count();
    p.deliveredFraction = batch.deliveredFraction();
    p.batchS = batchS;
    p.availBackend = useAvmon ? "avmon" : "oracle";
    p.avmonMae = avmonMae;
    p.avmonP99Err = avmonP99;
    p.avmonCoverage = avmonCoverage;
    if (const avmon::AvmonSystem* av = system.avmonSystem()) {
      const avmon::AvmonSystem::PingStats& ps = av->pingStats();
      p.pingsSent = ps.sent;
      p.pingsDelivered = ps.delivered;
      p.pingBytes = ps.bytes;
    }
    points.push_back(p);

    std::cout << p.n << " " << p.backend << " " << p.threads << " "
              << p.modelMb << " " << p.buildS << " " << p.warmupS << " "
              << p.restoreS << " "
              << p.warmupSimH << " " << p.events << " " << p.eventsPerS
              << " " << p.planS << " " << p.commitS << " " << p.planShare
              << " " << p.planNodesPerS << " " << p.planSlotP50Ms << " " << p.planSlotP99Ms
              << " " << p.maintTimers << " " << p.completedShuffles << " "
              << p.viewDigest << " " << p.meanDegree << " " << p.hsDegree
              << " " << p.feedCandidates << " " << p.wireRejected << " "
              << p.wireDroppedOffline << " " << p.wireAckTimeouts << " "
              << p.wireDuplicated << " " << p.wireInjectedDrops << " "
              << p.anycasts << " "
              << p.deliveredFraction << " " << p.batchS << " "
              << p.availBackend << " " << p.avmonMae << " " << p.avmonP99Err
              << " " << p.avmonCoverage << " " << p.pingsSent << " "
              << p.pingsDelivered << " " << p.pingBytes << "\n";
  }
  if (jsonPath) writeJson(*jsonPath, points, seed);
  return 0;
}
