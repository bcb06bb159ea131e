// Micro-benchmarks: discrete-event engine throughput and the worker
// pool's fork/join cost.
#include <benchmark/benchmark.h>

#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/worker_pool.hpp"

namespace {

using namespace avmem;

void BM_ScheduleAndRun(benchmark::State& state) {
  // Schedule a batch of events at random times and drain the queue —
  // the simulator's fundamental operation mix.
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    sim::Rng rng(7);
    state.ResumeTiming();
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule(sim::SimDuration::micros(
                       static_cast<std::int64_t>(rng.below(1'000'000))),
                   [] {});
    }
    sim.runAll();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ScheduleAndRun)->Arg(1000)->Arg(100000);

void BM_CancelledEvents(benchmark::State& state) {
  // Cancellation is lazy; measure the pop-and-skip cost.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    std::vector<sim::EventHandle> handles;
    handles.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      handles.push_back(
          sim.schedule(sim::SimDuration::micros(i), [] {}));
    }
    for (auto& h : handles) h.cancel();
    state.ResumeTiming();
    sim.runAll();
  }
}
BENCHMARK(BM_CancelledEvents);

void BM_PeriodicTasks(benchmark::State& state) {
  // 1442 staggered periodic tasks over one simulated hour — the
  // maintenance-loop shape of the full system.
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<std::unique_ptr<sim::PeriodicTask>> tasks;
    sim::Rng rng(3);
    for (int i = 0; i < 1442; ++i) {
      auto t = std::make_unique<sim::PeriodicTask>();
      t->start(sim,
               sim::SimTime::micros(
                   static_cast<std::int64_t>(rng.below(60'000'000))),
               sim::SimDuration::minutes(1), [] {});
      tasks.push_back(std::move(t));
    }
    sim.runUntil(sim::SimTime::hours(1));
  }
}
BENCHMARK(BM_PeriodicTasks)->Unit(benchmark::kMillisecond);

void BM_RngStreams(benchmark::State& state) {
  sim::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform());
  }
}
BENCHMARK(BM_RngStreams);

void BM_PoolRun(benchmark::State& state) {
  // Back-to-back run() calls of trivial tasks on a pool of every hardware
  // thread: what one plan batch pays for fan-out and join, beyond its
  // work. Slot firings and shuffle delivery batches are mostly 4-15 tasks.
  const auto tasks = static_cast<std::size_t>(state.range(0));
  sim::WorkerPool pool(sim::WorkerPool::defaultThreadCount());
  std::vector<std::size_t> out(tasks);
  const sim::WorkerPool::TaskFn write = [&out](std::size_t i) {
    out[i] = i;
    benchmark::DoNotOptimize(out[i]);
  };
  for (auto _ : state) {
    pool.run(tasks, write);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks));
}
BENCHMARK(BM_PoolRun)->Arg(2)->Arg(8)->Arg(40)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
