// Micro-benchmarks: predicate evaluation throughput per sub-predicate
// family, and the PDF-derived quantities behind them.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/predicates.hpp"
#include "hash/pair_hash.hpp"
#include "sim/random.hpp"

namespace {

using namespace avmem;
using namespace avmem::core;

AvailabilityPdf benchPdf() {
  stats::Histogram h(0.0, 1.0, 20);
  sim::Rng rng(9);
  for (int i = 0; i < 1442; ++i) h.add(rng.uniform() * rng.uniform());
  return AvailabilityPdf(std::move(h), 600.0);
}

void BM_PredicateF(benchmark::State& state) {
  const auto pdf = benchPdf();
  const AvmemPredicate pred = [&]() -> AvmemPredicate {
    switch (state.range(0)) {
      case 1:
        return makeRandomOverlayPredicate(pdf, 0.02);
      case 2:
        return makeLogDecreasingPredicate(pdf);
      case 3:
        return makeConstantSliversPredicate(pdf, 10.0, 10.0);
      default:
        return makePaperDefaultPredicate(pdf);
    }
  }();
  sim::Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred.f(rng.uniform(), rng.uniform()));
  }
}
BENCHMARK(BM_PredicateF)
    ->Arg(0)   // paper default (I.B + II.B)
    ->Arg(1)   // consistent-random baseline
    ->Arg(2)   // log-decreasing (I.C + II.B)
    ->Arg(3);  // constant slivers (I.A + II.A)

// The plan path's form: the predicate bound once to a list owner, then
// asked for f over a run of candidates — Arg 0 inside the owner's ±eps
// band (horizontal: the row's stored value), Arg 1 outside it (vertical:
// one sub-predicate call per candidate). Paper default predicate.
void BM_PredicateRowF(benchmark::State& state) {
  constexpr std::size_t kRun = 256;
  const auto pred = makePaperDefaultPredicate(benchPdf());
  sim::Rng rng(16);
  const double ax = 0.45;
  const bool horizontal = state.range(0) == 0;
  std::vector<double> ays(kRun);
  for (auto& ay : ays) {
    // Horizontal: within 0.09 of ax; vertical: at least 0.15 away.
    ay = horizontal ? ax - 0.09 + 0.18 * rng.uniform()
                    : (rng.chance(0.5) ? 0.3 * rng.uniform()
                                       : 0.6 + 0.4 * rng.uniform());
  }
  const auto row = pred.at(ax);
  for (auto _ : state) {
    double acc = 0.0;
    for (const double ay : ays) acc += row.f(ay);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRun));
}
BENCHMARK(BM_PredicateRowF)
    ->Arg(0)   // horizontal candidates
    ->Arg(1);  // vertical candidates

void BM_NStarMinAv(benchmark::State& state) {
  const auto pdf = benchPdf();
  sim::Rng rng(12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pdf.nStarMinAv(rng.uniform(), 0.1));
  }
}
BENCHMARK(BM_NStarMinAv);

// Batch predicate kernels vs their scalar forms over a realistic candidate
// run; ratio reported as "scalar_over_batched". These are the exact loops
// the vectorized plan phase replaces per maintenance firing.
void BM_EvaluateBatchSpeedup(benchmark::State& state) {
  constexpr std::size_t kRun = 512;
  const auto pdf = benchPdf();
  const auto pred = makePaperDefaultPredicate(pdf);
  sim::Rng rng(14);
  const double ax = rng.uniform();
  std::vector<double> hashes(kRun);
  std::vector<double> ays(kRun);
  for (std::size_t i = 0; i < kRun; ++i) {
    hashes[i] = rng.uniform();
    ays[i] = rng.uniform();
  }
  std::vector<std::uint8_t> out(kRun);
  double scalarNs = 0.0;
  double batchNs = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t acc = 0;
    for (std::size_t i = 0; i < kRun; ++i) {
      acc += pred.evaluate(hashes[i], ax, ays[i]) ? 1 : 0;
    }
    benchmark::DoNotOptimize(acc);
    const auto t1 = std::chrono::steady_clock::now();
    pred.evaluateMany(hashes, ax, ays, 0.0, out);
    benchmark::DoNotOptimize(out.data());
    const auto t2 = std::chrono::steady_clock::now();
    scalarNs += std::chrono::duration<double, std::nano>(t1 - t0).count();
    batchNs += std::chrono::duration<double, std::nano>(t2 - t1).count();
  }
  state.counters["scalar_over_batched"] =
      batchNs > 0.0 ? scalarNs / batchNs : 0.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * kRun));
}
BENCHMARK(BM_EvaluateBatchSpeedup);

// The candidate feed's branch-free admission pre-filter over a hash run.
void BM_AdmissionMask(benchmark::State& state) {
  constexpr std::size_t kRun = 512;
  sim::Rng rng(15);
  std::vector<double> hashes(kRun);
  for (auto& h : hashes) h = rng.uniform();
  std::vector<std::uint8_t> mask(kRun);
  for (auto _ : state) {
    benchmark::DoNotOptimize(admissionMask(hashes, 0.013, mask));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRun));
}
BENCHMARK(BM_AdmissionMask);

void BM_FullMembershipEvaluation(benchmark::State& state) {
  // The complete Discovery-path check: pair hash + predicate threshold.
  const auto pdf = benchPdf();
  const auto pred = makePaperDefaultPredicate(pdf);
  const avmem::hashing::PairHasher hasher;
  const std::array<std::uint8_t, 6> a{10, 0, 0, 1, 4, 210};
  const std::array<std::uint8_t, 6> b{10, 0, 0, 2, 8, 161};
  sim::Rng rng(13);
  for (auto _ : state) {
    const double h = hasher(a, b);
    benchmark::DoNotOptimize(
        pred.evaluate(h, rng.uniform(), rng.uniform()));
  }
}
BENCHMARK(BM_FullMembershipEvaluation);

}  // namespace

BENCHMARK_MAIN();
