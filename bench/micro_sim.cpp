// Micro-benchmarks: discrete-event engine throughput, the worker pool's
// fork/join cost, the CYCLON view merge, the ground-truth availability
// query and the AVMON availability query.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "avmon/availability_service.hpp"
#include "avmon/avmon_monitors.hpp"
#include "avmon/view_merge.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/worker_pool.hpp"
#include "trace/markov_churn.hpp"
#include "trace/overnet_generator.hpp"

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

void BM_ViewMerge(benchmark::State& state) {
  // One shuffle-delivery merge as the scale scenarios run it: 32 offered
  // ids into a full 64-entry view, the first 32 sampled entries (the ones
  // the node just sent away) as the preferred victims. The timed loop
  // cycles through 256 pre-drawn inputs so the branch predictor cannot
  // learn one merge; each iteration includes one 64-entry view copy.
  constexpr std::size_t kView = 64;
  constexpr std::size_t kOffered = 32;
  constexpr std::size_t kInputs = 256;
  constexpr net::NodeIndex kUniverse = 10000;
  struct Input {
    std::vector<net::NodeIndex> view;
    std::vector<net::NodeIndex> offered;
    std::vector<net::NodeIndex> sentAway;
    std::uint64_t seed;
  };
  sim::Rng rng(21);
  std::vector<Input> inputs(kInputs);
  for (Input& in : inputs) {
    while (in.view.size() < kView) {
      const auto id = static_cast<net::NodeIndex>(rng.below(kUniverse));
      if (std::find(in.view.begin(), in.view.end(), id) == in.view.end()) {
        in.view.push_back(id);
      }
    }
    in.sentAway.assign(in.view.begin(), in.view.begin() + kOffered);
    for (std::size_t i = 0; i < kOffered; ++i) {
      in.offered.push_back(static_cast<net::NodeIndex>(rng.below(kUniverse)));
    }
    std::sort(in.view.begin(), in.view.end());
    in.seed = rng.next();
  }
  std::vector<net::NodeIndex> view;
  std::size_t k = 0;
  for (auto _ : state) {
    const Input& in = inputs[k];
    k = k + 1 == kInputs ? 0 : k + 1;
    view.assign(in.view.begin(), in.view.end());
    sim::Rng mergeRng(in.seed);
    avmon::mergeView(view, kUniverse, kView, in.offered, in.sentAway,
                     mergeRng);
    benchmark::DoNotOptimize(view.data());
  }
}
BENCHMARK(BM_ViewMerge);

void BM_AvailabilityQuery(benchmark::State& state) {
  // "Availability of h now" as the chaos worlds ask it: a 2000-host
  // Markov model under an outage overlay (one outage, one flash crowd,
  // both behind the clock), queried for 1024 pre-drawn hosts in turn.
  // Arg 0 asks the model (AvailabilityModel::availabilityAt); arg 1 asks
  // OracleAvailabilityService::query, served from its per-epoch table.
  constexpr std::size_t kHosts = 2000;
  constexpr std::size_t kTargets = 1024;
  trace::OvernetTraceConfig traceConfig;
  traceConfig.hosts = kHosts;
  fault::FaultPlan plan;
  plan.regions = 4;
  fault::OutageStage outage;
  outage.fromUs = sim::SimTime::hours(1).toMicros();
  outage.toUs = sim::SimTime::hours(3).toMicros();
  outage.region = 1;
  outage.fraction = 0.5;
  plan.outages.push_back(outage);
  fault::FlashCrowdStage crowd;
  crowd.fromUs = sim::SimTime::hours(5).toMicros();
  crowd.toUs = sim::SimTime::hours(6).toMicros();
  crowd.fraction = 0.3;
  plan.flashCrowds.push_back(crowd);
  const fault::OutageOverlayModel model(
      std::make_unique<trace::MarkovChurnModel>(traceConfig), plan);
  sim::Simulator sim;
  sim.runUntil(sim::SimTime::hours(8));
  avmon::OracleAvailabilityService oracle(model, sim);

  sim::Rng rng(5);
  std::vector<net::NodeIndex> targets(kTargets);
  for (auto& t : targets) t = static_cast<net::NodeIndex>(rng.below(kHosts));
  const bool viaOracle = state.range(0) == 1;
  (void)oracle.query(0, 0);  // the epoch's table is built once, untimed
  std::size_t k = 0;
  for (auto _ : state) {
    const net::NodeIndex h = targets[k];
    k = k + 1 == kTargets ? 0 : k + 1;
    const double av = viaOracle ? *oracle.query(0, h)
                                : model.availabilityAt(h, sim.now());
    benchmark::DoNotOptimize(av);
  }
}
BENCHMARK(BM_AvailabilityQuery)->Arg(0)->Arg(1);

void BM_AvmonQuery(benchmark::State& state) {
  // AvmonAvailabilityService::query on the paper's setup: 1442 hosts,
  // SHA-1 monitor sets of ~8, two simulated days of folded epochs, every
  // target materialized, 1024 pre-drawn (querier, target) pairs asked in
  // turn (some queriers offline). The (epoch, fold) table is built once,
  // untimed, so a row reads the per-query cost.
  constexpr std::size_t kHosts = 1442;
  constexpr std::size_t kPairs = 1024;
  trace::OvernetTraceConfig traceConfig;
  traceConfig.hosts = kHosts;
  traceConfig.epochs = 300;
  const trace::ChurnTrace model = trace::generateOvernetTrace(traceConfig);
  const std::vector<core::NodeId> ids = core::makeNodeIds(kHosts, 5);
  sim::Simulator sim;
  avmon::AvmonSystem system(model, sim, ids, avmon::AvmonConfig{});
  system.start();
  for (net::NodeIndex t = 0; t < kHosts; ++t) (void)system.monitorsOf(t);
  sim.runUntil(sim::SimTime::days(2) + sim::SimDuration::minutes(7));
  const avmon::AvmonAvailabilityService service(system);

  sim::Rng rng(5);
  std::vector<std::pair<net::NodeIndex, net::NodeIndex>> pairs(kPairs);
  for (auto& [querier, target] : pairs) {
    querier = static_cast<net::NodeIndex>(rng.below(kHosts));
    target = static_cast<net::NodeIndex>(rng.below(kHosts));
  }
  (void)service.query(0, 0);
  std::size_t k = 0;
  for (auto _ : state) {
    const auto [querier, target] = pairs[k];
    k = k + 1 == kPairs ? 0 : k + 1;
    benchmark::DoNotOptimize(service.query(querier, target));
  }
}
BENCHMARK(BM_AvmonQuery);

void BM_GenerateOvernetTrace(benchmark::State& state) {
  // The dense paper trace (1442 hosts x 504 epochs, diurnal cycle on),
  // regenerated by every paper-1442 world construction and restore.
  const trace::OvernetTraceConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::generateOvernetTimeline(config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          config.hosts * config.epochs);
}
BENCHMARK(BM_GenerateOvernetTrace)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
