#include "avmon/availability_service.hpp"

#include <gtest/gtest.h>

#include "trace/churn_trace.hpp"

#include <cmath>

namespace avmem::avmon {
namespace {

trace::ChurnTrace makeTrace() {
  // Host 0 always on, host 1 on half the epochs, host 2 mostly off.
  std::vector<std::vector<std::uint8_t>> rows(3);
  for (int e = 0; e < 100; ++e) {
    rows[0].push_back(1);
    rows[1].push_back(e % 2 == 0 ? 1 : 0);
    rows[2].push_back(e % 10 == 0 ? 1 : 0);
  }
  return trace::ChurnTrace(std::move(rows), sim::SimDuration::minutes(20));
}

TEST(OracleServiceTest, ReportsTraceAvailability) {
  const auto t = makeTrace();
  sim::Simulator sim;
  OracleAvailabilityService svc(t, sim);
  sim.runUntil(sim::SimTime::hours(10));  // 30 epochs in

  ASSERT_TRUE(svc.query(0, 0).has_value());
  EXPECT_DOUBLE_EQ(*svc.query(0, 0), 1.0);
  EXPECT_NEAR(*svc.query(0, 1), 0.5, 0.03);
  EXPECT_NEAR(*svc.query(0, 2), 0.1, 0.04);
  // Oracle answers are querier-independent.
  EXPECT_DOUBLE_EQ(*svc.query(1, 2), *svc.query(2, 2));
}

TEST(NoisyServiceTest, ErrorIsBoundedAndClamped) {
  const auto t = makeTrace();
  sim::Simulator sim;
  OracleAvailabilityService oracle(t, sim);
  NoisyAvailabilityService noisy(oracle, sim, 0.05,
                                 sim::SimDuration::minutes(20), 99);
  sim.runUntil(sim::SimTime::hours(10));

  for (net::NodeIndex q = 0; q < 50; ++q) {
    const auto base = *oracle.query(q, 1);
    const auto v = *noisy.query(q, 1);
    EXPECT_LE(std::abs(v - base), 0.05 + 1e-12);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  // Availability 1.0 + positive noise must clamp to 1.0.
  for (net::NodeIndex q = 0; q < 50; ++q) {
    EXPECT_LE(*noisy.query(q, 0), 1.0);
  }
}

TEST(NoisyServiceTest, DeterministicPerQuerierAndBucket) {
  const auto t = makeTrace();
  sim::Simulator sim;
  OracleAvailabilityService oracle(t, sim);
  NoisyAvailabilityService noisy(oracle, sim, 0.05,
                                 sim::SimDuration::minutes(20), 99);
  sim.runUntil(sim::SimTime::hours(10));

  // Same querier, same instant: identical answers.
  EXPECT_DOUBLE_EQ(*noisy.query(3, 1), *noisy.query(3, 1));

  // Different queriers generally disagree (the inconsistency that drives
  // Figures 5-6).
  int disagreements = 0;
  for (net::NodeIndex q = 0; q < 20; ++q) {
    if (*noisy.query(q, 1) != *noisy.query(q + 1, 1)) ++disagreements;
  }
  EXPECT_GT(disagreements, 10);
}

TEST(NoisyServiceTest, ErrorIsDeterministicPerQuerierTargetBucket) {
  const auto t = makeTrace();
  sim::Simulator sim;
  OracleAvailabilityService oracle(t, sim);
  NoisyAvailabilityService noisy(oracle, sim, 0.05,
                                 sim::SimDuration::minutes(20), 99);
  sim.runUntil(sim::SimTime::hours(10));

  // Repeated queries of the same (querier, target) in one bucket are
  // bit-identical, and the error sample depends on the *target* too: the
  // same querier generally draws different perturbations per target.
  for (net::NodeIndex q = 0; q < 10; ++q) {
    EXPECT_DOUBLE_EQ(*noisy.query(q, 1), *noisy.query(q, 1));
    EXPECT_DOUBLE_EQ(*noisy.query(q, 2), *noisy.query(q, 2));
  }
  int targetDependent = 0;
  for (net::NodeIndex q = 0; q < 20; ++q) {
    const double err1 = *noisy.query(q, 1) - *oracle.query(q, 1);
    const double err2 = *noisy.query(q, 2) - *oracle.query(q, 2);
    if (err1 != err2) ++targetDependent;
  }
  EXPECT_GT(targetDependent, 10);
}

TEST(NoisyServiceTest, AnswersChangeOnlyAtBucketBoundaries) {
  const auto t = makeTrace();
  sim::Simulator sim;
  OracleAvailabilityService oracle(t, sim);
  NoisyAvailabilityService noisy(oracle, sim, 0.5,
                                 sim::SimDuration::hours(2), 99);

  sim.runUntil(sim::SimTime::hours(10));
  const double a = *noisy.query(5, 0);  // target 0 is always-on: base 1.0
  sim.runUntil(sim::SimTime::hours(10) + sim::SimDuration::minutes(30));
  const double b = *noisy.query(5, 0);  // same 2h bucket
  EXPECT_DOUBLE_EQ(a, b);
  sim.runUntil(sim::SimTime::hours(12) + sim::SimDuration::minutes(1));
  const double c = *noisy.query(5, 0);  // next bucket: fresh error sample
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace avmem::avmon
