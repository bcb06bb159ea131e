// The five multicast scenarios shared by Figures 11-13:
//   flood : HIGH -> [0.85, 0.95], HIGH -> av > 0.90, LOW -> av > 0.20
//   gossip: HIGH -> av > 0.90, LOW -> av > 0.20  (fanout 5, Ng 2, 1 s)
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/simulation.hpp"

namespace avmem::benchfig {

struct McScenario {
  std::string name;
  core::AvBand initiators;
  core::AvRange range;
  core::MulticastMode mode;
};

[[nodiscard]] inline std::vector<McScenario> paperMulticastScenarios() {
  using core::AvBand;
  using core::AvRange;
  using core::MulticastMode;
  return {
      {"HIGH to [0.85,0.95]", AvBand::high(), AvRange::closed(0.85, 0.95),
       MulticastMode::kFlood},
      {"HIGH to >0.90", AvBand::high(), AvRange::threshold(0.90),
       MulticastMode::kFlood},
      {"LOW to >0.20", AvBand::low(), AvRange::threshold(0.20),
       MulticastMode::kFlood},
      {"Gossip HIGH to >0.90", AvBand::high(), AvRange::threshold(0.90),
       MulticastMode::kGossip},
      {"Gossip LOW to >0.20", AvBand::low(), AvRange::threshold(0.20),
       MulticastMode::kGossip},
  };
}

/// Run `count` multicasts of one scenario, invoking `collect` per result.
inline void runScenario(
    core::AvmemSimulation& system, const McScenario& scenario,
    std::size_t count,
    const std::function<void(const core::MulticastResult&)>& collect) {
  for (std::size_t k = 0; k < count; ++k) {
    const auto initiator = system.pickInitiator(scenario.initiators);
    if (!initiator) break;
    core::MulticastParams params;
    params.range = scenario.range;
    params.mode = scenario.mode;
    params.fanout = 5;
    params.rounds = 2;
    params.gossipPeriod = sim::SimDuration::seconds(1);
    collect(system.runMulticast(*initiator, params));
  }
}

}  // namespace avmem::benchfig
