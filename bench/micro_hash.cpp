// Micro-benchmarks: digest and pair-hash throughput (google-benchmark).
//
// The pair hash sits on the hot path of Discovery (one evaluation per
// coarse-view entry per protocol period per node) — these numbers bound
// the predicate-evaluation budget quoted in DESIGN.md.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "hash/fast64_batch.hpp"
#include "hash/pair_hash.hpp"
#include "hash/sha1.hpp"
#include "sim/random.hpp"
#include "snapshot/snapshot_io.hpp"

namespace {

using namespace avmem;

void BM_Sha1(benchmark::State& state) {
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(hashing::sha1(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(12)->Arg(64)->Arg(1024)->Arg(65536);

// Arg: the PairHashAlgorithm value — 0 = SHA-1 (paper default),
// 2 = kFast64 (scale mode).
// Arg 0 runs whichever sha1Pair6 lane this CPU picks; BM_Sha1Pair6 below
// times each lane on its own.
void BM_PairHash(benchmark::State& state) {
  const hashing::PairHasher hasher(
      static_cast<hashing::PairHashAlgorithm>(state.range(0)));
  const std::array<std::uint8_t, 6> a{10, 0, 0, 1, 4, 210};
  const std::array<std::uint8_t, 6> b{10, 0, 0, 2, 8, 161};
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PairHash)->Arg(0)->Arg(2);

// The one-block SHA-1 pair kernel behind PairHasher's kSha1 case, one row
// per lane. Arg: 0 = generic (the scalar one-block kernel), 1 = SHA-NI
// (reported as an error on CPUs without it). Inputs walk a 1442-id table
// so no pair is a compile-time constant.
void BM_Sha1Pair6(benchmark::State& state) {
  const bool ni = state.range(0) == 1;
  if (ni && !hashing::sha1_lanes::niSupported()) {
    state.SkipWithError("CPU has no SHA-NI");
    return;
  }
  const auto lane =
      ni ? &hashing::sha1_lanes::pair6Ni : &hashing::sha1_lanes::pair6Generic;
  std::vector<std::array<std::uint8_t, 6>> ids(1442);
  sim::Rng rng(5);
  for (auto& id : ids) {
    for (auto& b : id) b = static_cast<std::uint8_t>(rng.next());
  }
  std::size_t i = 0;
  std::size_t j = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lane(ids[i], ids[j]));
    if (++j == ids.size()) {
      j = 0;
      if (++i == ids.size()) i = 0;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Sha1Pair6)->Arg(0)->Arg(1);

// The multi-pair SHA-1 entry, one row per lane, as AVMON materializes a
// monitor set: one target fixed on the right against every id of a
// 1442-id table. Arg: 0 = the sha1Pair6 loop, 1 = AVX-512 (reported as an
// error on CPUs without it). Items are pairs, so the time per item reads
// against BM_Sha1Pair6's.
void BM_Sha1Pair6Many(benchmark::State& state) {
  const bool avx512 = state.range(0) == 1;
  if (avx512 && !hashing::sha1_lanes::avx512Supported()) {
    state.SkipWithError("CPU has no AVX-512F");
    return;
  }
  const auto lane = avx512 ? &hashing::sha1_lanes::pair6ManyAvx512
                           : &hashing::sha1_lanes::pair6ManyLoop;
  std::vector<std::uint64_t> words(1442);
  sim::Rng rng(5);
  for (auto& w : words) w = rng.next() & ((std::uint64_t{1} << 48) - 1);
  std::vector<std::uint64_t> out(words.size());
  std::size_t target = 0;
  for (auto _ : state) {
    lane(words[target], words, hashing::PairSide::kRight, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    if (++target == words.size()) target = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(words.size()));
}
BENCHMARK(BM_Sha1Pair6Many)->Arg(0)->Arg(1);

// The raw mixer, without the PairHasher dispatch: what Discovery pays per
// predicate evaluation in scale mode.
void BM_Fast64Pair(benchmark::State& state) {
  const std::array<std::uint8_t, 6> a{10, 0, 0, 1, 4, 210};
  std::array<std::uint8_t, 6> b{10, 0, 0, 2, 8, 161};
  std::uint64_t k = 0;
  for (auto _ : state) {
    b[5] = static_cast<std::uint8_t>(++k);  // defeat constant folding
    benchmark::DoNotOptimize(hashing::fast64Pair(42, a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Fast64Pair);

// The batched kFast64 lane used by the vectorized plan kernels: one node's
// hash against a whole candidate run. Arg = run length.
void BM_Fast64HashMany(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(21);
  std::vector<std::uint64_t> tails(n);
  for (auto& t : tails) {
    t = hashing::fast64Tail6(static_cast<std::uint32_t>(rng.next()),
                             static_cast<std::uint16_t>(rng.next()));
  }
  const hashing::Fast64PairBatch batch(
      42, hashing::fast64Tail6(0x0A000001u, 1234));
  std::vector<double> out(n);
  for (auto _ : state) {
    batch.hashMany(tails, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fast64HashMany)->Arg(32)->Arg(512);

// Scalar-vs-batched on the same inputs, ratio reported as a counter
// ("scalar_over_batched" > 1 means the batch lane wins). This is the
// per-candidate cost delta the plan-phase pre-filter banks on.
void BM_Fast64BatchSpeedup(benchmark::State& state) {
  constexpr std::size_t kRun = 512;
  sim::Rng rng(22);
  const std::array<std::uint8_t, 6> self{10, 0, 0, 1, 4, 210};
  std::vector<std::array<std::uint8_t, 6>> ids(kRun);
  std::vector<std::uint64_t> tails(kRun);
  for (std::size_t i = 0; i < kRun; ++i) {
    for (auto& b : ids[i]) b = static_cast<std::uint8_t>(rng.next());
    std::uint64_t tail = 1;
    for (const std::uint8_t b : ids[i]) tail = (tail << 8) | b;
    tails[i] = tail;
  }
  const std::uint64_t selfTail = hashing::fast64Tail6(0x0A000001u, 1234);
  const hashing::Fast64PairBatch batch(42, selfTail);
  std::vector<double> out(kRun);
  double scalarNs = 0.0;
  double batchNs = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t acc = 0;
    for (const auto& id : ids) acc ^= hashing::fast64Pair(42, self, id);
    benchmark::DoNotOptimize(acc);
    const auto t1 = std::chrono::steady_clock::now();
    batch.hashMany(tails, out);
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
BENCHMARK(BM_Fast64BatchSpeedup);

// CRC-32 of one checkpoint section's payload, the integrity check every
// save and restore pays per byte. Arg: payload bytes (4 KiB, 1 MiB, and
// 11 MiB, about a scale-10k checkpoint).
void BM_Crc32(benchmark::State& state) {
  sim::Rng rng(23);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(state.range(0)));
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(snapshot::crc32(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(1 << 20)->Arg(11 << 20);

}  // namespace

BENCHMARK_MAIN();
