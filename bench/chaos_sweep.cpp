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
// Environment: AVMEM_THREADS and AVMEM_FAULT_PLAN are honored
// (bench/fig_common.hpp; the fault-plan file replaces the scenario's
// built-in campaign). Checkpoint paths are ignored: the sweep owns the
// timeline.
#include <algorithm>
#include <chrono>
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
  benchfig::applyEnvOverrides(scenario.config, "chaos_sweep");

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
  std::vector<benchfig::Columns> samples;
  double reconvergedH = -1.0;
  double tH = 0.0;  // the latest sample's sim-time, hours
  while (true) {
    tH = system.simulator().now().toHours();
    const auto batch =
        system.runAnycastBatch(core::AvBand::mid(), params, batchSize);
    const double delivered = batch.deliveredFraction();

    const std::size_t n = scenario.config.trace.hosts;
    const std::size_t sampleNodes = std::min<std::size_t>(n, 2000);
    double degree = 0.0;
    for (std::size_t i = 0; i < sampleNodes; ++i) {
      degree += static_cast<double>(
          system.node(static_cast<net::NodeIndex>(i)).degree());
    }

    // Every sample column, declared once (bench/sweep_columns.hpp). A
    // fault campaign is deterministic, so all of them are `sim`.
    const net::NetworkStats& ws = system.network().stats();
    benchfig::Columns row;
    row.sim("t_h", tH)
        .sim("delivered", delivered)
        .sim("mean_degree", degree / static_cast<double>(sampleNodes))
        .sim("view_digest", system.shuffleService().viewDigest())
        .sim("injected_drops", ws.injectedDrops)
        .sim("duplicated", ws.duplicated)
        .sim("ack_timeouts", ws.ackTimeouts)
        .sim("dropped_offline", ws.droppedOffline)
        .sim("attack_sweeps", injector->stats().attackSweeps);
    if (samples.empty()) row.printHeader(std::cout);
    row.printRow(std::cout);
    samples.push_back(std::move(row));

    if (reconvergedH < 0.0 && tH >= lastStageEndH && delivered >= floor) {
      reconvergedH = tH;
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
              << " through " << tH << " h)\n";
  }

  if (jsonPath) {
    benchfig::Columns top;
    top.sim("bench", "chaos_sweep")
        .sim("scenario", scenario.name)
        .sim("seed", scenario.config.seed)
        .perf("threads", system.maintenanceThreads())
        .sim("floor", floor)
        .sim("last_stage_end_h", lastStageEndH)
        .sim("reconverged_h", reconvergedH);
    if (!benchfig::writeSweepJson(*jsonPath, top, samples)) return 1;
  }
  return requireRecovery && reconvergedH < 0.0 ? 1 : 0;
}
