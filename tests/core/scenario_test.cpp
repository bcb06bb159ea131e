// The scenario registry: named experiment setups shared by benches,
// examples, and tests.
#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace avmem::core {
namespace {

TEST(ScenarioTest, RegistryShipsTheBuiltins) {
  auto& reg = ScenarioRegistry::global();
  for (const char* name :
       {"paper-default", "oracle-small", "noisy-verification",
        "coarse-view-baseline", "random-overlay", "scale-10k", "scale-100k",
        "scale-1m"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
  EXPECT_FALSE(reg.names().empty());
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

TEST(ScenarioTest, CustomScenariosCanBeRegistered) {
  auto& reg = ScenarioRegistry::global();
  reg.add({"test-custom", "registered by scenario_test",
           [](const ScenarioTuning&) {
             Scenario s;
             s.name = "test-custom";
             s.config.trace.hosts = 42;
             return s;
           }});
  ASSERT_TRUE(reg.contains("test-custom"));
  EXPECT_EQ(reg.build("test-custom").config.trace.hosts, 42u);
}

}  // namespace
}  // namespace avmem::core
