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
//                   plus a "classes" map marking each key sim or perf
//                   (bench/sweep_columns.hpp); CI stores this as
//                   BENCH_scale.json to track the perf trajectory
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
//   AVMEM_FAULT_PLAN      fault-campaign file applied to every point
//                         (docs/SCENARIOS.md "Fault campaigns")
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
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench/fig_common.hpp"
#include "bench/sweep_columns.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  bool fast = [] {
    const char* f = std::getenv("AVMEM_FAST");
    return f != nullptr && f[0] == '1';
  }();
  std::optional<std::string> jsonPath;
  std::optional<std::string> restoreFrom;
  std::optional<std::string> saveTo;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      fast = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint-in") == 0 && i + 1 < argc) {
      restoreFrom = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint-out") == 0 &&
               i + 1 < argc) {
      saveTo = argv[++i];
    } else {
      std::cerr << "scale_sweep: unknown argument '" << argv[i]
                << "' (usage: scale_sweep [--smoke] [--json out.json]"
                   " [--checkpoint-out warm.avmem]"
                   " [--checkpoint-in warm.avmem])\n";
      return 2;
    }
  }
  if (!restoreFrom) restoreFrom = benchfig::nonEmptyEnv("AVMEM_CHECKPOINT");
  if (!saveTo) saveTo = benchfig::nonEmptyEnv("AVMEM_CHECKPOINT_OUT");
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
  const std::optional<std::int64_t> shufflePeriodS = shufflePeriodFromEnv();

  const std::vector<std::uint32_t> sizes = populationSizes(fast);
  // With several populations one checkpoint path cannot serve them all:
  // suffix per point so a sweep saves/restores a file per N.
  const auto pointPath = [&sizes](const std::string& base, std::uint32_t n) {
    return sizes.size() > 1 ? base + ".N" + std::to_string(n) : base;
  };

  std::vector<benchfig::Columns> points;
  for (const std::uint32_t n : sizes) {
    auto scenario = core::makeScaleScenario(n, seed);
    benchfig::applyEnvOverrides(scenario.config, "scale_sweep");
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
    if (restoreFrom) {
      const std::string path = pointPath(*restoreFrom, n);
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
      if (saveTo) {
        const std::string path = pointPath(*saveTo, n);
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
        const double truth = system.trueAvailability(target);
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

    // Every column, declared once: the stdout header and row and the
    // --json record all derive from this list (bench/sweep_columns.hpp).
    // `sim` columns must match across thread counts and restores; `perf`
    // columns are wall clocks and the thread count. The seed, trace
    // backend and shuffle/feed knobs ride along per point so two archived
    // runs can be diffed without reconstructing their environment.
    const avmon::ShuffleConfig& shuffle = scenario.config.shuffle;
    const core::CandidateFeedConfig& feed = scenario.config.candidateFeed;
    const net::NetworkStats& ws = system.network().stats();
    avmon::AvmonSystem::PingStats pings;
    if (const avmon::AvmonSystem* av = system.avmonSystem()) {
      pings = av->pingStats();
    }
    benchfig::Columns row;
    row.sim("n", n)
        .sim("trace_backend",
             core::traceBackendName(scenario.config.traceBackend))
        .sim("seed", scenario.config.seed)
        .perf("threads", system.maintenanceThreads())
        .sim("shuffle_period_s", shuffle.period.toMicros() / 1'000'000)
        .sim("shuffle_view_size", shuffle.viewSize)
        .sim("shuffle_gossip_length", shuffle.gossipLength)
        .sim("feed_enabled", feed.enabled)
        .sim("feed_h_budget", feed.horizontalScanBudget)
        .sim("feed_v_budget", feed.verticalScanBudget)
        .sim("model_mb", modelMb)
        .perf("build_s", buildS)
        .perf("warmup_s", warmupS)
        .perf("restore_s", restoreS)  // 0 = warmed up fresh
        .sim("warmup_sim_h", scenario.warmup.toHours())
        .sim("events", warmupEvents)
        .perf("events_per_s",
              warmupS > 0.0 ? static_cast<double>(warmupEvents) / warmupS
                            : 0.0)
        .perf("plan_s", planS)      // warm-up wall in the parallel plan phase
        .perf("commit_s", commitS)  // ... and in the serial commit phase
        .perf("plan_share",  // the Amdahl-scalable part of the warm-up
              warmupS > 0.0 ? planS / warmupS : 0.0)
        .perf("plan_nodes_per_s",
              planS > 0.0 ? static_cast<double>(plannedMembers) / planS : 0.0)
        .perf("plan_slot_p50_ms", percentileMs(0.50))
        .perf("plan_slot_p99_ms", percentileMs(0.99))
        .sim("maint_timers", maintTimers)
        .sim("completed_shuffles", system.shuffleService().completedShuffles())
        .sim("view_digest", viewDigest)
        .sim("mean_degree", degree)  // HS+VS: the convergence gauge
        .sim("hs_degree", hsDegree)
        .sim("feed_candidates",  // rendezvous-feed draws evaluated
             system.membershipEngine().stats().feedCandidates)
        // Wire failures; duplicated / injected_drops only under a fault
        // plan.
        .sim("rejected", ws.rejected)
        .sim("dropped_offline", ws.droppedOffline)
        .sim("ack_timeouts", ws.ackTimeouts)
        .sim("duplicated", ws.duplicated)
        .sim("injected_drops", ws.injectedDrops)
        .sim("anycasts", batch.count())
        .sim("delivered_fraction", batch.deliveredFraction())
        .perf("batch_s", batchS)
        // The availability substrate; the accuracy and ping columns are
        // nonzero only for avmon.
        .sim("avail_backend", useAvmon ? "avmon" : "oracle")
        .sim("avmon_mae", avmonMae)
        .sim("avmon_p99_err", avmonP99)
        .sim("avmon_coverage", avmonCoverage)
        .sim("pings_sent", pings.sent)
        .sim("pings_delivered", pings.delivered)
        .sim("ping_bytes", pings.bytes);
    if (points.empty()) row.printHeader(std::cout);
    row.printRow(std::cout);
    points.push_back(std::move(row));
  }
  if (jsonPath) {
    benchfig::Columns top;
    top.sim("bench", "scale_sweep").sim("seed", seed);
    if (!benchfig::writeSweepJson(*jsonPath, top, points)) return 1;
  }
  return 0;
}
