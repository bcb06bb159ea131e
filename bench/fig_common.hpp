// Environment plumbing shared by the bench binaries: paper_figures (the
// paper's Section 4 figures, the ablations and Section 3.1's overhead
// analysis at 1442 hosts, 7-day synthetic Overnet trace, 24 h warm-up,
// AVMON availability backend; AVMEM_FAST=1 for a reduced smoke
// configuration), trace_characterization, scale_sweep and chaos_sweep.
//
// The library reads no environment; every AVMEM_* override a bench honours
// is read here or in the bench itself.
#pragma once

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "core/scenario.hpp"
#include "core/simulation.hpp"
#include "fault/fault_plan.hpp"
#include "stats/series_printer.hpp"

namespace avmem::benchfig {

/// Scale knobs resolved from the environment. Backed by the shared
/// "paper-default" scenario (core/scenario.hpp); AVMEM_FAST maps onto the
/// scenario's smoke tuning.
struct BenchEnv {
  std::uint32_t hosts = 1442;
  sim::SimDuration warmup = sim::SimDuration::hours(24);
  std::size_t messagesPerPoint = 50;  ///< paper: 5 runs x 50 messages
  std::size_t runsPerPoint = 5;
  std::uint64_t seed = 20070101;      ///< Middleware 2007 vintage
  bool fast = false;

  [[nodiscard]] static BenchEnv fromEnv() {
    BenchEnv env;
    if (const char* fast = std::getenv("AVMEM_FAST");
        fast != nullptr && fast[0] == '1') {
      env.fast = true;
      env.messagesPerPoint = 20;
      env.runsPerPoint = 2;
    }
    if (const char* seed = std::getenv("AVMEM_SEED"); seed != nullptr) {
      env.seed = std::strtoull(seed, nullptr, 10);
    }
    // Resolve hosts/warmup from the scenario (hosts intentionally left to
    // the scenario here — tuning.hosts = 0 = "scenario default"), then
    // read the *effective* seed back so the bench header always reports
    // what actually ran (tuning treats seed 0 as "keep default").
    core::ScenarioTuning tuning;
    tuning.seed = env.seed;
    tuning.fast = env.fast;
    const auto scenario = core::makeScenario("paper-default", tuning);
    env.hosts = scenario.config.trace.hosts;
    env.warmup = scenario.warmup;
    env.seed = scenario.config.seed;
    return env;
  }

  [[nodiscard]] core::ScenarioTuning scenarioTuning() const {
    core::ScenarioTuning tuning;
    tuning.hosts = hosts;  // honors caller overrides of env.hosts
    tuning.seed = seed;
    tuning.fast = fast;
    return tuning;
  }
};

/// The AVMEM_TRACE_BACKEND override (recorded | markov); nullopt
/// when unset — callers keep their scenario's default. Exits with status 2
/// on an unknown name so CI fails loudly instead of silently benching the
/// wrong representation.
[[nodiscard]] inline std::optional<core::TraceBackend> traceBackendFromEnv(
    std::string_view benchName) {
  const char* b = std::getenv("AVMEM_TRACE_BACKEND");
  if (b == nullptr) return std::nullopt;
  const auto backend = core::parseTraceBackend(b);
  if (!backend) {
    std::cerr << benchName << ": unknown AVMEM_TRACE_BACKEND '" << b
              << "' (want recorded|markov)\n";
    std::exit(2);
  }
  return backend;
}

/// A non-empty environment value, or nullopt. Paths pass through
/// verbatim; a bad one fails loudly where it is opened.
[[nodiscard]] inline std::optional<std::string> nonEmptyEnv(const char* var) {
  const char* v = std::getenv(var);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

/// Apply the environment overrides every scenario-driven bench honours to
/// a built config:
///  * AVMEM_THREADS pins the maintenance plan-phase thread count
///    (0 = auto / hardware_concurrency, 1 = serial). Malformed values
///    (non-digits, minus signs, absurd counts) are rejected loudly rather
///    than silently becoming "auto" or a few billion threads.
///  * AVMEM_FAULT_PLAN names a fault-campaign file (docs/SCENARIOS.md
///    "Fault campaigns") that replaces any built-in campaign, so one
///    variable swaps the campaign without a recompile. A bad path or a
///    malformed plan prints "<benchName>: fault plan: ..." and exits with
///    status 2.
inline void applyEnvOverrides(core::SimulationConfig& config,
                              std::string_view benchName) {
  if (const auto t = nonEmptyEnv("AVMEM_THREADS")) {
    const char* text = t->c_str();
    char* end = nullptr;
    const unsigned long value = std::strtoul(text, &end, 10);
    constexpr unsigned long kMaxThreads = 1024;
    if (end == text || *end != '\0' || text[0] == '-' ||
        value > kMaxThreads) {
      std::cerr << "ignoring AVMEM_THREADS='" << *t
                << "' (want an integer in [0, " << kMaxThreads
                << "]; 0 = auto)\n";
    } else {
      config.maintenanceThreads = static_cast<std::size_t>(value);
    }
  }
  if (const auto plan = nonEmptyEnv("AVMEM_FAULT_PLAN")) {
    try {
      config.faultPlan = fault::loadFaultPlan(*plan);
    } catch (const fault::FaultPlanError& e) {
      std::cerr << benchName << ": " << e.what() << "\n";
      std::exit(2);
    }
  }
}

/// Standard figure header on stdout.
inline void printHeader(const std::string& figure, const std::string& title,
                        const std::string& paperExpectation,
                        const BenchEnv& env) {
  std::cout << "# " << figure << ": " << title << "\n";
  std::cout << "# paper: " << paperExpectation << "\n";
  std::cout << "# config: hosts=" << env.hosts
            << " warmup=" << env.warmup.toString() << " seed=" << env.seed
            << "\n";
}

}  // namespace avmem::benchfig
