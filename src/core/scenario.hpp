// The scenario registry: named, reusable experiment setups.
//
// Every bench binary and example used to hand-roll its own
// SimulationConfig block; scenarios make those setups first-class and
// shared. A scenario names a complete experiment — configuration plus the
// warm-up the paper (or the scale study) prescribes — built from caller
// tuning (host count, seed, fast/smoke mode) without the caller knowing
// which knobs the scenario cares about.
//
// A scenario is a pure value of (name, tuning): the registry is a
// constant table, and no builder reads the environment or touches a file.
// Callers that want overrides apply them to the built config (the bench
// binaries do so in bench/fig_common.hpp).
//
// Three families ship built in (docs/SCENARIOS.md documents every entry):
//  * paper-* — the Middleware 2007 evaluation setups (1442 hosts, 7-day
//    synthetic Overnet trace as a recorded timeline, AVMON backend,
//    SHA-1 pair hash);
//  * scale-* — the million-node setups (oracle backend, kFast64 pair
//    hash, compact views, sharded maintenance, streaming Markov churn —
//    no materialized timeline), used by bench/scale_sweep up to its
//    default 1M-node top point;
//  * chaos-* — scale-100k under a built-in fault campaign.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/simulation.hpp"

namespace avmem::core {

/// Caller-side tuning applied on top of a scenario's defaults. Zero values
/// mean "keep the scenario default".
struct ScenarioTuning {
  std::uint32_t hosts = 0;
  std::uint64_t seed = 0;
  /// Shrink to a smoke-test footprint (CI, AVMEM_FAST=1).
  bool fast = false;
};

/// A fully-resolved experiment setup.
struct Scenario {
  std::string name;
  SimulationConfig config;
  /// Warm-up the scenario prescribes before measurements.
  sim::SimDuration warmup = sim::SimDuration::hours(24);
};

/// Build a named scenario; throws std::out_of_range on unknown names.
[[nodiscard]] Scenario makeScenario(std::string_view name,
                                    const ScenarioTuning& tuning = {});

/// The registry's scenario names, sorted.
[[nodiscard]] std::vector<std::string_view> scenarioNames();

/// The scale-mode setup for an arbitrary population size (the registry's
/// scale-10k/100k/1m entries are fixed points of this). Oracle
/// availability, kFast64 pair hash, 1-day streaming Markov churn
/// (O(hosts) memory — nothing materialized), compact high-churn views,
/// auto-sharded maintenance, plan-phase threads on every core
/// (maintenanceThreads = 0; paper-* scenarios default to serial).
[[nodiscard]] Scenario makeScaleScenario(std::uint32_t hosts,
                                         std::uint64_t seed = 20070101);

}  // namespace avmem::core
