// Parameterized property sweeps across the configuration space the paper
// leaves implicit: PDF shapes x predicates, gossip parameter products,
// epsilon values, and degenerate membership states.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "core/simulation.hpp"
#include "tests/core/test_world.hpp"

namespace avmem::core {
namespace {

// --- Predicate behaviour across PDF shapes ----------------------------------

/// PDF shapes stressing different parts of the predicate formulas.
enum class PdfShape { kUniform, kSkewedLow, kBimodal, kPointMass };

AvailabilityPdf makePdf(PdfShape shape, double nStar = 600.0) {
  stats::Histogram h(0.0, 1.0, 20);
  switch (shape) {
    case PdfShape::kUniform:
      for (int b = 0; b < 20; ++b) h.add(h.binMid(b), 10);
      break;
    case PdfShape::kSkewedLow:
      for (int b = 0; b < 20; ++b) {
        h.add(h.binMid(b), static_cast<std::uint64_t>(40 - b * 2 + 1));
      }
      break;
    case PdfShape::kBimodal:
      h.add(0.12, 80);
      h.add(0.92, 80);
      h.add(0.5, 5);
      break;
    case PdfShape::kPointMass:
      h.add(0.75, 100);
      break;
  }
  return AvailabilityPdf(std::move(h), nStar);
}

struct SweepCase {
  const char* name;
  PdfShape shape;
};

class PdfShapeSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PdfShapeSweep, AllSubPredicatesStayNormalized) {
  const auto pdf = makePdf(GetParam().shape);
  const LogarithmicVerticalSub vs(1.0);
  const LogarithmicDecreasingVerticalSub vsd(1.0);
  const LogConstantHorizontalSub hs(1.0, 0.1);
  const ConstantVerticalSub cvs(10.0);
  const ConstantHorizontalSub chs(10.0, 0.1);
  const std::array<const VerticalSubPredicate*, 3> vertical = {&vs, &vsd,
                                                               &cvs};
  const std::array<const HorizontalSubPredicate*, 2> horizontal = {&hs,
                                                                   &chs};
  for (double ax = 0.0; ax <= 1.0; ax += 0.01) {
    for (const HorizontalSubPredicate* sub : horizontal) {
      const double f = sub->value(ax, pdf);
      ASSERT_GE(f, 0.0) << sub->name() << " ax=" << ax;
      ASSERT_LE(f, 1.0) << sub->name() << " ax=" << ax;
      ASSERT_FALSE(std::isnan(f)) << sub->name();
    }
    for (double ay = 0.0; ay <= 1.0; ay += 0.1) {
      for (const VerticalSubPredicate* sub : vertical) {
        const double f = sub->value(ax, ay, pdf);
        ASSERT_GE(f, 0.0) << sub->name() << " ax=" << ax << " ay=" << ay;
        ASSERT_LE(f, 1.0) << sub->name() << " ax=" << ax << " ay=" << ay;
        ASSERT_FALSE(std::isnan(f)) << sub->name();
      }
    }
  }
}

TEST_P(PdfShapeSweep, PdfMassIsMonotoneAndBounded) {
  const auto pdf = makePdf(GetParam().shape);
  double prev = 0.0;
  for (double hi = 0.0; hi <= 1.0; hi += 0.05) {
    const double m = pdf.mass(0.0, hi);
    ASSERT_GE(m, prev - 1e-12);  // monotone in the upper limit
    ASSERT_LE(m, 1.0 + 1e-12);
    prev = m;
  }
  EXPECT_NEAR(pdf.mass(0.0, 1.0), 1.0, 1e-9);
}

TEST_P(PdfShapeSweep, NStarMinNeverExceedsNStarAv) {
  const auto pdf = makePdf(GetParam().shape);
  for (double av = 0.0; av <= 1.0; av += 0.05) {
    ASSERT_LE(pdf.nStarMinAv(av, 0.1), pdf.nStarAv(av, 0.1) + 1e-9)
        << "av=" << av;
  }
}

TEST_P(PdfShapeSweep, Theorem3DegreeBoundHolds) {
  // E[degree] <= N*_av(x) - 1 + c1 log N* (paper Theorem 3(i)), checked
  // by numerical integration at every availability. Integration samples
  // 8 sub-cells per histogram bin so the horizontal/vertical split at
  // +-eps is resolved below bin granularity (bin-level classification
  // would miscount in-band mass on spiky PDFs).
  const auto pdf = makePdf(GetParam().shape);
  const auto pred = makePaperDefaultPredicate(pdf);
  const auto& h = pdf.histogram();
  constexpr int kSubCells = 8;
  for (double av = 0.025; av < 1.0; av += 0.05) {
    double degree = 0.0;
    for (std::size_t j = 0; j < h.binCount(); ++j) {
      const double cellMass = h.fraction(j) / kSubCells;
      for (int c = 0; c < kSubCells; ++c) {
        const double m =
            h.binLo(j) + h.binWidth() * (c + 0.5) / kSubCells;
        degree += pred.f(av, m) * pdf.nStar() * cellMass;
      }
    }
    const double bound =
        pdf.nStarAv(av, 0.1) - 1.0 + std::log(pdf.nStar()) + 8.0;
    ASSERT_LE(degree, bound) << GetParam().name << " av=" << av;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PdfShapeSweep,
    ::testing::Values(SweepCase{"uniform", PdfShape::kUniform},
                      SweepCase{"skewed", PdfShape::kSkewedLow},
                      SweepCase{"bimodal", PdfShape::kBimodal},
                      SweepCase{"pointmass", PdfShape::kPointMass}),
    [](const auto& info) { return std::string(info.param.name); });

// --- Gossip parameter product ------------------------------------------------

/// The paper sizes gossip as fanout x Ng = log(N*). Sweep the product and
/// verify reliability responds monotonically (more budget, never worse by
/// a margin) and that the message cost scales with the budget.
class GossipBudgetSweep : public ::testing::TestWithParam<int> {};

TEST_P(GossipBudgetSweep, ReliabilityRespondsToGossipBudget) {
  SimulationConfig cfg;
  cfg.trace.hosts = 150;
  cfg.backend = AvailabilityBackend::kOracle;
  cfg.seed = 101;
  AvmemSimulation s(cfg);
  s.warmup(sim::SimDuration::hours(6));
  const auto initiator = s.pickInitiator(AvBand::high());
  ASSERT_TRUE(initiator.has_value());

  MulticastParams p;
  p.range = AvRange::threshold(0.6);
  p.mode = MulticastMode::kGossip;
  p.fanout = GetParam();
  p.rounds = 2;
  const auto r = s.runMulticast(*initiator, p);
  ASSERT_GT(r.eligible, 10u);
  if (GetParam() >= 4) {
    // fanout x rounds >= log(N*) ~ 4.1: w.h.p. dissemination.
    EXPECT_GT(r.reliability(), 0.6) << "fanout " << GetParam();
  } else {
    // Starved gossip must still deliver *something* without violating
    // bounds.
    EXPECT_LE(r.reliability(), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, GossipBudgetSweep,
                         ::testing::Values(1, 2, 4, 8),
                         [](const auto& info) {
                           return "fanout" + std::to_string(info.param);
                         });

// --- Degenerate membership states ---------------------------------------------

TEST(DegenerateStateTest, AnycastWithEmptyListsReportsNoNeighbor) {
  // A cold system (no warm-up): the initiator has no neighbors at all.
  SimulationConfig cfg;
  cfg.trace.hosts = 80;
  cfg.backend = AvailabilityBackend::kOracle;
  cfg.seed = 3;
  AvmemSimulation s(cfg);
  // Advance trace time without starting maintenance so lists stay empty,
  // then start maintenance with zero elapsed rounds.
  const auto initiator = s.onlineNodes().empty()
                             ? std::optional<net::NodeIndex>{}
                             : std::optional<net::NodeIndex>{
                                   s.onlineNodes().front()};
  ASSERT_TRUE(initiator.has_value());
  AnycastParams p;
  p.range = AvRange::closed(0.99, 1.0);
  const auto r = s.runAnycast(*initiator, p);
  // Either no neighbors yet (cold lists) or the rare case the initiator
  // itself qualifies.
  EXPECT_TRUE(r.outcome == AnycastOutcome::kNoNeighbor ||
              r.outcome == AnycastOutcome::kDelivered);
}

TEST(DegenerateStateTest, DiscoveryWithEmptyViewIsANoop) {
  using testing::cyclicTrace;
  using testing::ManualWorld;
  using testing::twoLevelPredicate;
  ManualWorld w(cyclicTrace({0.5, 0.6}), twoLevelPredicate(1.0, 1.0));
  w.sim.runUntil(sim::SimTime::days(1));
  w.nodes[0].discoverOnce({});
  EXPECT_EQ(w.nodes[0].degree(), 0u);
  EXPECT_EQ(w.nodes[0].stats().discoveryRounds, 1u);
}

TEST(DegenerateStateTest, RefreshOnEmptyListsIsANoop) {
  using testing::cyclicTrace;
  using testing::ManualWorld;
  using testing::twoLevelPredicate;
  ManualWorld w(cyclicTrace({0.5, 0.6}), twoLevelPredicate(1.0, 1.0));
  w.sim.runUntil(sim::SimTime::days(1));
  w.nodes[0].refreshOnce();
  EXPECT_EQ(w.nodes[0].degree(), 0u);
  EXPECT_EQ(w.nodes[0].stats().neighborsEvicted, 0u);
}

}  // namespace
}  // namespace avmem::core
