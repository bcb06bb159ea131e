// The scenario registry: named, reusable experiment setups.
//
// Every bench binary and example used to hand-roll its own
// SimulationConfig block; scenarios make those setups first-class and
// shared. A ScenarioSpec names a complete experiment — configuration plus
// the warm-up the paper (or the scale study) prescribes — and a builder
// that applies caller tuning (host count, seed, fast/smoke mode) without
// the caller knowing which knobs the scenario cares about.
//
// Two families ship built in (docs/SCENARIOS.md documents every entry):
//  * paper-* — the Middleware 2007 evaluation setups (1442 hosts, 7-day
//    synthetic Overnet trace as a recorded timeline, AVMON backend,
//    SHA-1 pair hash);
//  * scale-* — the million-node setups (oracle backend, kFast64 pair
//    hash, compact views, sharded maintenance, streaming Markov churn —
//    no materialized timeline), used by bench/scale_sweep up to its
//    default 1M-node top point.
#pragma once

#include <cstdint>
#include <functional>
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

/// One registry entry: metadata plus the builder.
struct ScenarioSpec {
  std::string name;
  std::string summary;
  std::function<Scenario(const ScenarioTuning&)> build;
};

/// Process-wide registry of named scenarios. The built-ins are registered
/// on first access; libraries and experiments may add their own.
class ScenarioRegistry {
 public:
  /// The registry instance shared by benches, examples, and tests.
  [[nodiscard]] static ScenarioRegistry& global();

  /// Register (or replace) a scenario.
  void add(ScenarioSpec spec);

  [[nodiscard]] bool contains(std::string_view name) const;
  [[nodiscard]] const ScenarioSpec* find(std::string_view name) const;

  /// Build a named scenario; throws std::out_of_range on unknown names.
  [[nodiscard]] Scenario build(std::string_view name,
                               const ScenarioTuning& tuning = {}) const;

  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  ScenarioRegistry();
  std::vector<ScenarioSpec> specs_;
};

/// Shorthand for ScenarioRegistry::global().build(...).
[[nodiscard]] Scenario makeScenario(std::string_view name,
                                    const ScenarioTuning& tuning = {});

/// The scale-mode setup for an arbitrary population size (the registry's
/// scale-10k/100k/1m entries are fixed points of this). Oracle
/// availability, kFast64 pair hash, 1-day streaming Markov churn
/// (O(hosts) memory — nothing materialized), compact high-churn views,
/// auto-sharded maintenance, plan-phase threads on every core
/// (AVMEM_THREADS overrides; paper-* scenarios default to serial).
[[nodiscard]] Scenario makeScaleScenario(std::uint32_t hosts,
                                         std::uint64_t seed = 20070101);

}  // namespace avmem::core
