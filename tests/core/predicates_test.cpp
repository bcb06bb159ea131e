// Unit and property tests for the AVMEM predicate family, including
// numerical checks of the paper's Theorems 1-3.
#include "core/predicates.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/node_id.hpp"
#include "hash/pair_hash.hpp"
#include "sim/random.hpp"

namespace avmem::core {
namespace {

AvailabilityPdf uniformPdf(double nStar = 1000.0) {
  stats::Histogram h(0.0, 1.0, 20);
  for (int b = 0; b < 20; ++b) h.add(h.binMid(b), 5);
  return AvailabilityPdf(std::move(h), nStar);
}

AvailabilityPdf skewedPdf(double nStar = 1000.0) {
  // Overnet-like: heavy low-availability mass, thin high tail.
  stats::Histogram h(0.0, 1.0, 20);
  for (int b = 0; b < 20; ++b) {
    h.add(h.binMid(b), static_cast<std::uint64_t>(40 - b * 2 + 1));
  }
  return AvailabilityPdf(std::move(h), nStar);
}

TEST(PredicateClassifyTest, EpsilonSplitsHorizontalAndVertical) {
  const auto pred = makePaperDefaultPredicate(uniformPdf(), 0.1);
  EXPECT_EQ(pred.classify(0.5, 0.55), SliverKind::kHorizontal);
  EXPECT_EQ(pred.classify(0.5, 0.45), SliverKind::kHorizontal);
  EXPECT_EQ(pred.classify(0.5, 0.61), SliverKind::kVertical);
  EXPECT_EQ(pred.classify(0.5, 0.39), SliverKind::kVertical);
}

TEST(PredicateClassifyTest, ExactBoundaryIsVertical) {
  // Strict inequality at |ax - ay| == eps, checked with binary-exact
  // values (0.625 - 0.5 == 0.125 exactly; 0.6 - 0.5 is not exact).
  const auto pred = makePaperDefaultPredicate(uniformPdf(), 0.125);
  EXPECT_EQ(pred.classify(0.5, 0.625), SliverKind::kVertical);
  EXPECT_EQ(pred.classify(0.625, 0.5), SliverKind::kVertical);
  EXPECT_EQ(pred.classify(0.5, 0.624), SliverKind::kHorizontal);
}

TEST(LogVerticalTest, MatchesFormulaOnUniformPdf) {
  const auto pdf = uniformPdf(1000.0);
  LogarithmicVerticalSub vs(1.0);
  // f = c1 log(N*) / (N* p(ay)); uniform density = 1.
  const double expected = std::log(1000.0) / 1000.0;
  EXPECT_NEAR(vs.value(0.2, 0.9, pdf), expected, 1e-12);
  // Independent of ax entirely.
  EXPECT_DOUBLE_EQ(vs.value(0.1, 0.9, pdf), vs.value(0.8, 0.9, pdf));
}

TEST(LogVerticalTest, DenserRegionsGetSmallerF) {
  const auto pdf = skewedPdf();
  LogarithmicVerticalSub vs(1.0);
  // Low availabilities are dense -> smaller f; high are sparse -> larger.
  EXPECT_LT(vs.value(0.5, 0.05, pdf), vs.value(0.5, 0.95, pdf));
}

TEST(LogVerticalTest, EmptyBinSaturatesToOne) {
  stats::Histogram h(0.0, 1.0, 10);
  h.add(0.1, 100);  // all mass in one bin
  const AvailabilityPdf pdf(std::move(h), 1000.0);
  LogarithmicVerticalSub vs(1.0);
  EXPECT_DOUBLE_EQ(vs.value(0.1, 0.9, pdf), 1.0);
}

TEST(LogDecreasingVerticalTest, DecaysWithAvailabilityDistance) {
  const auto pdf = uniformPdf();
  LogarithmicDecreasingVerticalSub vs(1.0);
  const double near = vs.value(0.5, 0.65, pdf);
  const double far = vs.value(0.5, 0.95, pdf);
  EXPECT_GT(near, far);
  // Inverse-distance law: f(d) * d constant while unclamped.
  EXPECT_NEAR(near * 0.15, far * 0.45, 1e-9);
}

TEST(LogDecreasingVerticalTest, ZeroDistanceSaturates) {
  const auto pdf = uniformPdf();
  LogarithmicDecreasingVerticalSub vs(1.0);
  EXPECT_DOUBLE_EQ(vs.value(0.5, 0.5, pdf), 1.0);
}

TEST(ConstantSubTest, CountNormalization) {
  const auto pdf = uniformPdf(1000.0);
  ConstantVerticalSub vs(20.0);
  EXPECT_NEAR(vs.value(0.3, 0.7, pdf), 0.02, 1e-12);

  ConstantHorizontalSub hs(10.0, 0.1);
  // N*_av(0.5) = 200 under the uniform PDF -> f = 10/200.
  EXPECT_NEAR(hs.value(0.5, pdf), 0.05, 1e-9);
}

TEST(ConstantSubTest, SaturatesWhenCandidatesScarce) {
  stats::Histogram h(0.0, 1.0, 10);
  h.add(0.95, 100);
  const AvailabilityPdf pdf(std::move(h), 10.0);
  ConstantVerticalSub vs(50.0);  // more than N*
  EXPECT_DOUBLE_EQ(vs.value(0.1, 0.9, pdf), 1.0);
}

TEST(LogConstantHorizontalTest, MatchesFormulaOnUniformPdf) {
  const auto pdf = uniformPdf(1000.0);
  LogConstantHorizontalSub hs(1.0, 0.1);
  // N*_av = 200, N*min_av = 100 under uniform -> f = log(200)/100.
  EXPECT_NEAR(hs.value(0.5, pdf), std::log(200.0) / 100.0, 1e-6);
}

TEST(LogConstantHorizontalTest, SparseRegionsGetLargerF) {
  const auto pdf = skewedPdf();
  LogConstantHorizontalSub hs(1.0, 0.1);
  EXPECT_GT(hs.value(0.9, pdf), hs.value(0.1, pdf));
}

TEST(ConstantFractionTest, ClampsAndIgnoresInputs) {
  const auto pdf = uniformPdf();
  ConstantFractionSub sub(0.42);
  EXPECT_DOUBLE_EQ(sub.value(0.0, 1.0, pdf), 0.42);
  EXPECT_DOUBLE_EQ(sub.value(0.9, 0.1, pdf), 0.42);
  ConstantFractionSub over(1.7);
  EXPECT_DOUBLE_EQ(over.value(0.5, 0.5, pdf), 1.0);
}

TEST(CompositePredicateTest, RoutesToCorrectSubPredicate) {
  const auto pred = AvmemPredicate(
      std::make_shared<ConstantFractionSub>(0.9),   // horizontal
      std::make_shared<ConstantFractionSub>(0.01),  // vertical
      0.1, uniformPdf());
  EXPECT_DOUBLE_EQ(pred.f(0.5, 0.55), 0.9);
  EXPECT_DOUBLE_EQ(pred.f(0.5, 0.9), 0.01);
}

TEST(CompositePredicateTest, EvaluateThresholdAndCushion) {
  const auto pred = AvmemPredicate(std::make_shared<ConstantFractionSub>(0.5),
                                   std::make_shared<ConstantFractionSub>(0.5),
                                   0.1, uniformPdf());
  EXPECT_TRUE(pred.evaluate(0.49, 0.5, 0.5));
  EXPECT_TRUE(pred.evaluate(0.50, 0.5, 0.5));  // <= boundary accepted
  EXPECT_FALSE(pred.evaluate(0.51, 0.5, 0.5));
  EXPECT_TRUE(pred.evaluate(0.51, 0.5, 0.5, /*cushion=*/0.1));
}

// --- Batch kernels ----------------------------------------------------------

TEST(BatchKernelTest, AdmissionMaskMatchesScalarCompare) {
  sim::Rng rng(23);
  for (const double threshold : {0.0, 0.013, 0.5, 1.0}) {
    std::vector<double> hashes(137);
    for (auto& h : hashes) h = rng.uniform();
    hashes[5] = threshold;  // boundary: <= admits
    std::vector<std::uint8_t> mask(hashes.size(), 0xFF);
    const std::size_t admitted = admissionMask(hashes, threshold, mask);
    std::size_t expected = 0;
    for (std::size_t i = 0; i < hashes.size(); ++i) {
      const std::uint8_t want = hashes[i] <= threshold ? 1 : 0;
      ASSERT_EQ(mask[i], want) << "threshold " << threshold << " i=" << i;
      expected += want;
    }
    EXPECT_EQ(admitted, expected);
  }
}

TEST(BatchKernelTest, ClassifyManyMatchesClassify) {
  const auto pred = makePaperDefaultPredicate(uniformPdf(), 0.125);
  sim::Rng rng(29);
  const double ax = 0.5;
  std::vector<double> ays(200);
  for (auto& ay : ays) ay = rng.uniform();
  ays[0] = 0.625;  // exact epsilon boundary stays vertical
  std::vector<SliverKind> kinds(ays.size());
  pred.classifyMany(ax, ays, kinds);
  for (std::size_t i = 0; i < ays.size(); ++i) {
    ASSERT_EQ(kinds[i], pred.classify(ax, ays[i])) << "i=" << i;
  }
}

TEST(BatchKernelTest, EvaluateManyMatchesEvaluate) {
  // Real paper-default predicate so both sliver sub-predicates (and the
  // epsilon routing between them) are exercised, not a constant stub.
  const auto pred = makePaperDefaultPredicate(skewedPdf(), 0.1);
  sim::Rng rng(31);
  for (const double cushion : {0.0, 0.05}) {
    const double ax = rng.uniform();
    std::vector<double> hashes(300);
    std::vector<double> ays(hashes.size());
    for (std::size_t i = 0; i < hashes.size(); ++i) {
      hashes[i] = rng.uniform();
      ays[i] = rng.uniform();
    }
    std::vector<std::uint8_t> out(hashes.size(), 0xFF);
    pred.evaluateMany(hashes, ax, ays, cushion, out);
    for (std::size_t i = 0; i < hashes.size(); ++i) {
      const std::uint8_t want =
          pred.evaluate(hashes[i], ax, ays[i], cushion) ? 1 : 0;
      ASSERT_EQ(out[i], want) << "cushion " << cushion << " i=" << i;
    }
  }
}

// --- Rows bound to the list owner --------------------------------------------

TEST(PredicateRowTest, RowIsBitIdenticalToPerPairFormulas) {
  // at(ax).f(ay) against f(ax, ay) and against the paper's formulas
  // written out per pair, log(N*) included, in the same expression order.
  // A grid of multiples of 1/32 makes |ax - ay| == eps exact for
  // eps = 0.125, takes in ax = 0 and ax = 1, and the sparse PDF leaves
  // bins empty (density 0, N*min 0).
  stats::Histogram sparse(0.0, 1.0, 20);
  sparse.add(0.12, 40);
  sparse.add(0.93, 25);
  sparse.add(0.55, 3);
  const std::vector<AvailabilityPdf> pdfs = {
      skewedPdf(), uniformPdf(10.0), AvailabilityPdf(std::move(sparse), 600)};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto logConstantHs = [](const AvailabilityPdf& pdf, double eps,
                                double c2, double ax) {
    const double nAv = std::max(pdf.nStarAv(ax, eps), 2.0);
    const double nMin = pdf.nStarMinAv(ax, eps);
    if (nMin <= 0.0) return 1.0;
    return std::clamp(c2 * std::log(nAv) / nMin, 0.0, 1.0);
  };
  std::size_t checked = 0;
  std::size_t onBoundary = 0;
  // c = 1 is the paper's sizing; c = 1.3 keeps the constants from
  // vanishing in the products.
  for (const auto& setting : {std::pair{0.1, 1.0}, std::pair{0.125, 1.3}}) {
    const double eps = setting.first;
    const double c = setting.second;
    for (const auto& pdf : pdfs) {
      using Formula = std::function<double(double, double)>;
      const std::vector<std::pair<AvmemPredicate, Formula>> cases = {
          {makePaperDefaultPredicate(pdf, eps, c, c),
           [&](double ax, double ay) {
             if (std::abs(ax - ay) < eps) {
               return logConstantHs(pdf, eps, c, ax);
             }
             const double density = pdf.density(ay);
             if (density <= 0.0) return 1.0;
             return std::clamp(c * std::log(pdf.nStar()) /
                                   (pdf.nStar() * density),
                               0.0, 1.0);
           }},
          {makeLogDecreasingPredicate(pdf, eps, c, c),
           [&](double ax, double ay) {
             if (std::abs(ax - ay) < eps) {
               return logConstantHs(pdf, eps, c, ax);
             }
             const double density = pdf.density(ay);
             const double dist = std::abs(ay - ax);
             if (density <= 0.0 || dist <= 0.0) return 1.0;
             return std::clamp(c * std::log(pdf.nStar()) /
                                   (pdf.nStar() * density * dist),
                               0.0, 1.0);
           }},
          {makeRandomOverlayPredicate(pdf, 0.02, eps),
           [](double, double) { return 0.02; }},
          {makeConstantSliversPredicate(pdf, 10.0, 10.0, eps),
           [&](double ax, double ay) {
             if (std::abs(ax - ay) < eps) {
               const double candidates = pdf.nStarAv(ax, eps);
               if (candidates <= 0.0) return 1.0;
               return std::clamp(10.0 / candidates, 0.0, 1.0);
             }
             return std::clamp(10.0 / pdf.nStar(), 0.0, 1.0);
           }},
      };
      for (const auto& [pred, formula] : cases) {
        for (int i = 0; i <= 32; ++i) {
          const double ax = i / 32.0;
          const auto row = pred.at(ax);
          for (int j = 0; j <= 32; ++j) {
            const double ay = j / 32.0;
            const double f = row.f(ay);
            ASSERT_EQ(bits(f), bits(pred.f(ax, ay)))
                << pred.name() << " ax=" << ax << " ay=" << ay;
            ASSERT_EQ(bits(f), bits(formula(ax, ay)))
                << pred.name() << " ax=" << ax << " ay=" << ay;
            ASSERT_EQ(row.classify(ay), pred.classify(ax, ay));
            for (const double h : {0.0, f, std::nextafter(f, 2.0), 0.5}) {
              ASSERT_EQ(row.evaluate(h, ay, 0.05),
                        pred.evaluate(h, ax, ay, 0.05));
            }
            ++checked;
            onBoundary += std::abs(ax - ay) == eps ? 1 : 0;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 2u * 3u * 4u * 33u * 33u);
  EXPECT_GT(onBoundary, 0u);
}

// --- Property sweeps (TEST_P) ----------------------------------------------

struct PredicateCase {
  const char* name;
  int which;  // 0 default, 1 random, 2 log-decreasing, 3 constant
};

class PredicateFamilyTest : public ::testing::TestWithParam<PredicateCase> {
 protected:
  [[nodiscard]] AvmemPredicate make(AvailabilityPdf pdf) const {
    switch (GetParam().which) {
      case 1:
        return makeRandomOverlayPredicate(std::move(pdf), 0.02);
      case 2:
        return makeLogDecreasingPredicate(std::move(pdf));
      case 3:
        return makeConstantSliversPredicate(std::move(pdf), 10.0, 10.0);
      default:
        return makePaperDefaultPredicate(std::move(pdf));
    }
  }
};

TEST_P(PredicateFamilyTest, FStaysInUnitInterval) {
  for (const auto& pdf : {uniformPdf(), skewedPdf(), uniformPdf(10.0)}) {
    const auto pred = make(pdf);
    for (double ax = 0.0; ax <= 1.0; ax += 0.05) {
      for (double ay = 0.0; ay <= 1.0; ay += 0.05) {
        const double f = pred.f(ax, ay);
        ASSERT_GE(f, 0.0) << GetParam().name << " ax=" << ax << " ay=" << ay;
        ASSERT_LE(f, 1.0) << GetParam().name << " ax=" << ax << " ay=" << ay;
      }
    }
  }
}

TEST_P(PredicateFamilyTest, EvaluationIsConsistentAcrossParties) {
  // Two "parties" with independent predicate instances and hashers must
  // agree on M(x, y) for every pair — the core non-cooperation defense.
  const auto predA = make(uniformPdf());
  const auto predB = make(uniformPdf());
  hashing::PairHasher hashA;
  hashing::PairHasher hashB;
  sim::Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const NodeId x{static_cast<std::uint32_t>(rng.next()),
                   static_cast<std::uint16_t>(rng.next())};
    const NodeId y{static_cast<std::uint32_t>(rng.next()),
                   static_cast<std::uint16_t>(rng.next())};
    const double ax = rng.uniform();
    const double ay = rng.uniform();
    const bool a = predA.evaluate(hashA(x.bytes(), y.bytes()), ax, ay);
    const bool b = predB.evaluate(hashB(x.bytes(), y.bytes()), ax, ay);
    ASSERT_EQ(a, b);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPredicates, PredicateFamilyTest,
    ::testing::Values(PredicateCase{"paper_default", 0},
                      PredicateCase{"random_overlay", 1},
                      PredicateCase{"log_decreasing", 2},
                      PredicateCase{"constant_slivers", 3}),
    [](const auto& info) { return std::string(info.param.name); });

// --- Theorem checks ---------------------------------------------------------

TEST(TheoremTest, Theorem1UniformCoverageOfVerticalSliver) {
  // Expected vertical neighbors in a width-da interval around a is
  // c1 log(N*) da regardless of a — even on a skewed PDF.
  const auto pdf = skewedPdf(1000.0);
  LogarithmicVerticalSub vs(1.0);
  const double da = 0.05;
  std::vector<double> expectedPerInterval;
  for (double a = 0.025; a < 1.0; a += da) {
    // E[#neighbors in (a, a+da)] = f * N* * p(a) * da.
    const double f = vs.value(0.5, a, pdf);
    if (f >= 1.0) continue;  // clamped bins are excluded by the theorem
    expectedPerInterval.push_back(f * pdf.nStar() * pdf.density(a) * da);
  }
  ASSERT_GT(expectedPerInterval.size(), 10u);
  const double reference = std::log(1000.0) * da;
  for (const double v : expectedPerInterval) {
    EXPECT_NEAR(v, reference, reference * 1e-9);
  }
}

TEST(TheoremTest, Theorem3ExpectedDegreeIsLogarithmic) {
  // Under a not-too-skewed PDF the total expected degree is O(log N*):
  // grow N* x16 and the expected degree must grow ~x(log growth), far
  // slower than linear.
  auto degreeAt = [](double nStar) {
    const auto pdf = uniformPdf(nStar);
    const auto pred = makePaperDefaultPredicate(pdf);
    double degree = 0.0;
    const auto& h = pdf.histogram();
    for (std::size_t j = 0; j < h.binCount(); ++j) {
      degree += pred.f(0.5, h.binMid(j)) * nStar * h.fraction(j);
    }
    return degree;
  };
  const double d1k = degreeAt(1000.0);
  const double d16k = degreeAt(16000.0);
  EXPECT_LT(d16k / d1k, 2.5);  // log growth, not the x16 of linear
  EXPECT_GT(d16k, d1k);        // but still monotone
}

}  // namespace
}  // namespace avmem::core
