// The scenario registry: named experiment setups shared by benches,
// examples, and tests.
#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "snapshot/checkpoint.hpp"

namespace avmem::core {
namespace {

TEST(ScenarioTest, RegistryShipsTheBuiltins) {
  const std::vector<std::string_view> names = scenarioNames();
  for (const char* name :
       {"paper-default", "oracle-small", "noisy-verification",
        "coarse-view-baseline", "random-overlay", "scale-10k", "scale-100k",
        "scale-1m", "scale-avmon-100k", "scale-avmon-1m", "chaos-loss",
        "chaos-outage", "chaos-storm"}) {
    EXPECT_TRUE(std::binary_search(names.begin(), names.end(), name))
        << name;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

TEST(ScenarioTest, UnknownNameThrows) {
  EXPECT_THROW((void)makeScenario("no-such-scenario"), std::out_of_range);
}

TEST(ScenarioTest, PaperDefaultMatchesThePaperSetup) {
  const auto s = makeScenario("paper-default");
  EXPECT_EQ(s.config.trace.hosts, 1442u);
  EXPECT_EQ(s.config.backend, AvailabilityBackend::kAvmon);
  EXPECT_EQ(s.config.protocol.hashAlgorithm,
            hashing::PairHashAlgorithm::kSha1);  // paper fidelity
  EXPECT_EQ(s.warmup, sim::SimDuration::hours(24));
}

TEST(ScenarioTest, TuningOverridesHostsSeedAndFootprint) {
  ScenarioTuning tuning;
  tuning.hosts = 250;
  tuning.seed = 77;
  const auto s = makeScenario("paper-default", tuning);
  EXPECT_EQ(s.config.trace.hosts, 250u);
  EXPECT_EQ(s.config.seed, 77u);

  ScenarioTuning fast;
  fast.fast = true;
  const auto smoke = makeScenario("paper-default", fast);
  EXPECT_LT(smoke.config.trace.hosts, 1442u);
  EXPECT_LT(smoke.warmup, sim::SimDuration::hours(24));
}

TEST(ScenarioTest, ScaleScenariosUseTheScaleMode) {
  const auto s = makeScenario("scale-100k");
  EXPECT_EQ(s.config.trace.hosts, 100'000u);
  EXPECT_EQ(s.config.backend, AvailabilityBackend::kOracle);
  EXPECT_EQ(s.config.protocol.hashAlgorithm,
            hashing::PairHashAlgorithm::kFast64);
  EXPECT_GT(s.config.shuffle.viewSize, 0u);  // compact fixed views
  // The 1M-direction choice: streaming churn, no materialized timeline.
  EXPECT_EQ(s.config.traceBackend, TraceBackend::kMarkov);

  const auto custom = makeScaleScenario(12'345, 9);
  EXPECT_EQ(custom.config.trace.hosts, 12'345u);
  EXPECT_EQ(custom.config.seed, 9u);
}

TEST(ScenarioTest, PaperScenariosKeepTheRecordedTrace) {
  // Paper-fidelity figures must keep reading the recorded representation.
  EXPECT_EQ(makeScenario("paper-default").config.traceBackend,
            TraceBackend::kRecorded);
}

TEST(ScenarioTest, ScaleScenarioRunsOnEveryTraceBackend) {
  for (const auto backend : {TraceBackend::kRecorded, TraceBackend::kMarkov}) {
    auto s = makeScaleScenario(120, 7);
    s.config.traceBackend = backend;
    AvmemSimulation world(s.config);
    world.warmup(sim::SimDuration::hours(1));
    EXPECT_GT(world.onlineNodes().size(), 0u)
        << static_cast<int>(backend);
  }
}

TEST(ScenarioTest, RegisteredScenarioBuildsARunnableWorld) {
  ScenarioTuning tuning;
  tuning.hosts = 80;
  tuning.fast = true;
  const auto s = makeScenario("oracle-small", tuning);
  AvmemSimulation world(s.config);
  world.warmup(sim::SimDuration::hours(1));
  EXPECT_GT(world.onlineNodes().size(), 0u);
}

TEST(ScenarioTest, BuildersIgnoreTheEnvironment) {
  ScenarioTuning fast;
  fast.fast = true;
  struct Built {
    std::uint64_t fingerprint;
    std::size_t threads;
  };
  const auto build = [&fast](std::string_view name) {
    const Scenario s = makeScenario(name, fast);
    return Built{snapshot::configFingerprint(s.config),
                 s.config.maintenanceThreads};
  };
  const std::vector<std::string_view> names = scenarioNames();
  std::vector<Built> clean;
  for (const std::string_view name : names) clean.push_back(build(name));

  const char* const vars[][2] = {
      {"AVMEM_THREADS", "3"},
      {"AVMEM_CHECKPOINT", "/nonexistent/warm.avmem"},
      {"AVMEM_CHECKPOINT_OUT", "/nonexistent/out.avmem"},
      {"AVMEM_FAULT_PLAN", "/nonexistent/c.fault"}};
  for (const auto& var : vars) ::setenv(var[0], var[1], 1);
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Built b = build(names[i]);
    EXPECT_EQ(b.fingerprint, clean[i].fingerprint) << names[i];
    EXPECT_EQ(b.threads, clean[i].threads) << names[i];
  }
  ScenarioTuning small = fast;
  small.hosts = 200;
  for (const char* name : {"oracle-small", "chaos-storm"}) {
    EXPECT_NO_THROW({
      AvmemSimulation world(makeScenario(name, small).config);
      world.warmup(sim::SimDuration::minutes(10));
    }) << name;
  }
  for (const auto& var : vars) ::unsetenv(var[0]);
}

}  // namespace
}  // namespace avmem::core
