// Quickstart: build an AVMEM overlay over a synthetic Overnet-like churn
// trace, inspect a node's slivers, then run one range-anycast and one
// threshold-multicast.
//
//   ./quickstart [scenario] [hosts]
//
// Scenarios come from the shared registry (core/scenario.hpp); the default
// is the paper setup shrunk to a fast demo. Pass "paper-default" for the
// full 1442-host / 24 h configuration, or any other registered name
// (run with an unknown name to list them). The scenario runs exactly as
// the registry builds it: no environment variable changes it.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/attack.hpp"
#include "core/scenario.hpp"
#include "core/simulation.hpp"

int main(int argc, char** argv) {
  using namespace avmem;

  const std::string scenarioName = argc > 1 ? argv[1] : "paper-default";
  core::ScenarioTuning tuning;
  tuning.fast = argc <= 1;  // no args = fast demo footprint
  tuning.seed = 7;
  if (argc > 2) {
    tuning.hosts =
        static_cast<std::uint32_t>(std::strtoul(argv[2], nullptr, 10));
  }

  const auto names = core::scenarioNames();
  if (!std::binary_search(names.begin(), names.end(), scenarioName)) {
    std::cerr << "unknown scenario '" << scenarioName << "'; available:\n";
    for (const auto name : names) {
      std::cerr << "  " << name << "\n";
    }
    return 1;
  }
  const auto scenario = core::makeScenario(scenarioName, tuning);

  std::cout << "Building AVMEM system: scenario " << scenario.name << ", "
            << scenario.config.trace.hosts << " hosts\n";
  core::AvmemSimulation system(scenario.config);
  std::cout << "Predicate: " << system.predicate().name() << "\n";

  std::cout << "Warming up " << scenario.warmup.toString()
            << " of simulated time...\n";
  system.warmup(scenario.warmup);

  const auto online = system.onlineNodes();
  std::cout << "Online nodes: " << online.size() << " / "
            << system.nodeCount() << "\n";

  // Inspect the slivers of one reasonably-available online node.
  for (const auto i : online) {
    if (system.trueAvailability(i) > 0.5) {
      const auto& node = system.node(i);
      std::cout << "Node " << i << " (" << system.ids()[i].toString()
                << ", availability "
                << system.trueAvailability(i) << "):\n"
                << "  horizontal sliver: " << node.horizontalSliver().size()
                << " neighbors\n"
                << "  vertical sliver:   " << node.verticalSliver().size()
                << " neighbors\n";
      break;
    }
  }

  // Range-anycast: find some node with availability in [0.85, 0.95].
  if (const auto initiator = system.pickInitiator(core::AvBand::mid())) {
    core::AnycastParams params;
    params.range = core::AvRange::closed(0.85, 0.95);
    params.strategy = core::AnycastStrategy::kRetriedGreedy;
    params.slivers = core::SliverSet::kHsAndVs;
    const auto r = system.runAnycast(*initiator, params);
    std::cout << "Range-anycast MID -> [0.85,0.95]: " << toString(r.outcome)
              << " in " << r.hops << " hops, "
              << r.latency.toMillis() << " ms\n";
  }

  // Threshold-multicast: flood every node with availability > 0.8.
  if (const auto initiator = system.pickInitiator(core::AvBand::high())) {
    core::MulticastParams params;
    params.range = core::AvRange::threshold(0.8);
    params.mode = core::MulticastMode::kFlood;
    const auto m = system.runMulticast(*initiator, params);
    std::cout << "Threshold-multicast HIGH -> av>0.8: reliability "
              << m.reliability() << " (" << m.delivered << "/" << m.eligible
              << "), spam ratio " << m.spamRatio() << ", last delivery "
              << m.lastDeliveryLatency.toMillis() << " ms\n";
  }

  // Flooding-attack resistance of a random low-availability node.
  if (const auto attacker = system.pickInitiator(core::AvBand::low())) {
    const auto sweep = core::floodingAttack(system, *attacker);
    std::cout << "Flooding attack from node " << *attacker << ": "
              << sweep.acceptFraction()
              << " of non-neighbors would accept\n";
  }

  std::cout << "Network: " << system.network().stats().sent << " msgs sent, "
            << system.network().stats().droppedOffline
            << " dropped at offline hosts\n";
  return 0;
}
