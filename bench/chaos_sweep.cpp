// Chaos sweep: drive a hostile fault campaign (chaos-* scenario) through
// its stage windows and measure how the overlay degrades and — the gate
// that matters — how fast it reconverges once the campaign ends.
//
// The sweep warms the scenario up (the chaos-* builders place every
// stage window AFTER the warm-up, so the campaign hits a converged
// overlay), then samples on a fixed sim-time cadence through the last
// stage window plus a recovery tail. Each sample runs a MID-band
// retried-greedy anycast batch (with a small per-candidate loss-retry
// allowance — see AnycastParams::lossRetries) and records:
//
//  * delivery rate — the end-to-end health gauge;
//  * mean HS+VS degree — overlay shape under the campaign;
//  * the order-sensitive view digest — lets CI diff two runs at
//    different thread counts for bit-identity under active faults;
//  * cumulative wire counters, injected drops/duplicates included.
//
// Time-to-reconvergence = first sample at or after the last stage end
// whose delivery rate clears the floor (default 0.90). With
// --require-recovery the process exits nonzero if no sample clears it —
// the CI reconvergence gate.
//
// Usage:
//   chaos_sweep [--scenario chaos-loss|chaos-outage|chaos-storm]
//               [--smoke] [--json out.json] [--floor F]
//               [--require-recovery]
//
// Environment: AVMEM_THREADS and AVMEM_FAULT_PLAN are honored through
// the scenario builders (the fault-plan file replaces the scenario's
// built-in campaign).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/simulation.hpp"

namespace {

using namespace avmem;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One sample along the campaign timeline.
struct Sample {
  double tH = 0.0;  ///< sim-time of the sample, hours
  double delivered = 0.0;
  double meanDegree = 0.0;
  std::uint64_t viewDigest = 0;
  std::uint64_t injectedDrops = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t ackTimeouts = 0;
  std::uint64_t droppedOffline = 0;
  std::uint64_t attackSweeps = 0;
};

void writeJson(const std::string& path, const std::string& scenarioName,
               std::uint64_t seed, std::size_t threads, double floor,
               double lastStageEndH, double reconvergedH,
               const std::vector<Sample>& samples) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "chaos_sweep: cannot write '" << path << "'\n";
    return;
  }
  out << "{\n  \"bench\": \"chaos_sweep\",\n  \"scenario\": \""
      << scenarioName << "\",\n  \"seed\": " << seed
      << ",\n  \"threads\": " << threads << ",\n  \"floor\": " << floor
      << ",\n  \"last_stage_end_h\": " << lastStageEndH
      << ",\n  \"reconverged_h\": " << reconvergedH
      << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    out << "    {\"t_h\": " << s.tH << ", \"delivered\": " << s.delivered
        << ", \"mean_degree\": " << s.meanDegree
        << ", \"view_digest\": " << s.viewDigest
        << ", \"injected_drops\": " << s.injectedDrops
        << ", \"duplicated\": " << s.duplicated
        << ", \"ack_timeouts\": " << s.ackTimeouts
        << ", \"dropped_offline\": " << s.droppedOffline
        << ", \"attack_sweeps\": " << s.attackSweeps << "}"
        << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cerr << "chaos_sweep: wrote " << samples.size() << " sample(s) to "
            << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = [] {
    const char* f = std::getenv("AVMEM_FAST");
    return f != nullptr && f[0] == '1';
  }();
  std::string scenarioName = "chaos-outage";
  std::optional<std::string> jsonPath;
  double floor = 0.90;
  bool requireRecovery = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      fast = true;
    } else if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      scenarioName = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else if (std::strcmp(argv[i], "--floor") == 0 && i + 1 < argc) {
      floor = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--require-recovery") == 0) {
      requireRecovery = true;
    } else {
      std::cerr << "chaos_sweep: unknown argument '" << argv[i]
                << "' (usage: chaos_sweep [--scenario NAME] [--smoke]"
                   " [--json out.json] [--floor F] [--require-recovery])\n";
      return 2;
    }
  }
  if (floor <= 0.0 || floor > 1.0) {
    std::cerr << "chaos_sweep: --floor must be in (0, 1]\n";
    return 2;
  }

  core::ScenarioTuning tuning;
  tuning.fast = fast;
  core::Scenario scenario;
  try {
    scenario = core::makeScenario(scenarioName, tuning);
  } catch (const std::exception& e) {
    std::cerr << "chaos_sweep: " << e.what() << "\n";
    return 2;
  }
  // The sweep owns the timeline; a checkpoint path in the environment
  // would re-save at every sampling step.
  scenario.config.checkpointIn.clear();
  scenario.config.checkpointOut.clear();

  std::cerr << "building " << scenario.name << " ("
            << scenario.config.trace.hosts << " hosts)...\n";
  const auto tBuild = Clock::now();
  core::AvmemSimulation system(scenario.config);
  const double buildS = secondsSince(tBuild);

  const fault::FaultInjector* injector = system.faultInjector();
  if (injector == nullptr) {
    std::cerr << "chaos_sweep: scenario '" << scenario.name
              << "' carries no fault plan — nothing to measure\n";
    return 2;
  }
  const fault::FaultPlan& plan = injector->plan();
  const double lastStageEndH =
      static_cast<double>(plan.lastStageEndUs()) / 3600e6;

  std::cerr << "warming up " << scenario.warmup.toString() << " ("
            << system.maintenanceThreads() << " plan thread(s))...\n";
  const auto tWarm = Clock::now();
  system.warmup(scenario.warmup);
  const double warmupS = secondsSince(tWarm);

  // Anycast probes: retried-greedy with a small same-candidate re-send
  // allowance, so sustained loss is distinguishable from dead neighbors
  // (the hardening under test).
  core::AnycastParams params;
  params.range = core::AvRange::threshold(0.7);
  params.strategy = core::AnycastStrategy::kRetriedGreedy;
  params.lossRetries = 2;
  const std::size_t batchSize = fast ? 10 : 20;
  const auto sampleEvery =
      fast ? sim::SimDuration::minutes(2) : sim::SimDuration::minutes(5);
  const auto recoveryTail =
      fast ? sim::SimDuration::minutes(15) : sim::SimDuration::minutes(30);
  const std::int64_t endUs =
      plan.lastStageEndUs() + recoveryTail.toMicros();

  std::cout << "# chaos_sweep: " << scenario.name << ", floor=" << floor
            << ", last_stage_end_h=" << lastStageEndH << "\n";
  std::cout << "# t_h delivered mean_degree view_digest injected_drops "
               "duplicated ack_timeouts dropped_offline attack_sweeps\n";

  std::vector<Sample> samples;
  double reconvergedH = -1.0;
  while (true) {
    Sample s;
    s.tH = system.simulator().now().toHours();

    const auto batch =
        system.runAnycastBatch(core::AvBand::mid(), params, batchSize);
    s.delivered = batch.deliveredFraction();

    const std::size_t n = scenario.config.trace.hosts;
    const std::size_t sampleNodes = std::min<std::size_t>(n, 2000);
    double degree = 0.0;
    for (std::size_t i = 0; i < sampleNodes; ++i) {
      degree += static_cast<double>(
          system.node(static_cast<net::NodeIndex>(i)).degree());
    }
    s.meanDegree = degree / static_cast<double>(sampleNodes);
    s.viewDigest = system.shuffleService().viewDigest();

    const net::NetworkStats& ws = system.network().stats();
    s.injectedDrops = ws.injectedDrops;
    s.duplicated = ws.duplicated;
    s.ackTimeouts = ws.ackTimeouts;
    s.droppedOffline = ws.droppedOffline;
    s.attackSweeps = injector->stats().attackSweeps;
    samples.push_back(s);

    std::cout << s.tH << " " << s.delivered << " " << s.meanDegree << " "
              << s.viewDigest << " " << s.injectedDrops << " "
              << s.duplicated << " " << s.ackTimeouts << " "
              << s.droppedOffline << " " << s.attackSweeps << "\n";

    if (reconvergedH < 0.0 && s.tH >= lastStageEndH &&
        s.delivered >= floor) {
      reconvergedH = s.tH;
    }
    if (system.simulator().now().toMicros() >= endUs) break;
    system.warmup(sampleEvery);  // advance one sampling step
  }

  std::cout << "# build_s=" << buildS << " warmup_s=" << warmupS
            << " reconverged_h=" << reconvergedH << " (campaign ends at "
            << lastStageEndH << " h)\n";
  if (reconvergedH >= 0.0) {
    std::cerr << "chaos_sweep: reconverged at " << reconvergedH
              << " h (delivery >= " << floor << ")\n";
  } else {
    std::cerr << "chaos_sweep: NEVER reconverged (delivery < " << floor
              << " through " << samples.back().tH << " h)\n";
  }

  if (jsonPath) {
    writeJson(*jsonPath, scenario.name, scenario.config.seed,
              system.maintenanceThreads(), floor, lastStageEndH,
              reconvergedH, samples);
  }
  return requireRecovery && reconvergedH < 0.0 ? 1 : 0;
}
