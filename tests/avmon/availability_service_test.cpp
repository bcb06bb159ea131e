#include "avmon/availability_service.hpp"

#include <gtest/gtest.h>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "sim/worker_pool.hpp"
#include "trace/churn_trace.hpp"
#include "trace/markov_churn.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

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

std::unique_ptr<trace::MarkovChurnModel> makeMarkov(std::size_t hosts = 64) {
  std::vector<double> pUp;
  sim::Rng rng(404);
  for (std::size_t h = 0; h < hosts; ++h) {
    pUp.push_back(0.05 + 0.9 * rng.uniform());
  }
  trace::MarkovChurnConfig cfg;
  cfg.horizonEpochs = 120;  // 40 h of 20-minute epochs
  cfg.seed = 77;
  return std::make_unique<trace::MarkovChurnModel>(std::move(pUp), cfg);
}

/// One outage (region 1, epochs 3..8) and one flash crowd (half of all
/// hosts, epochs 15..17) over a Markov model.
std::unique_ptr<fault::OutageOverlayModel> makeOverlay() {
  fault::FaultPlan plan;
  plan.regions = 4;
  fault::OutageStage outage;
  outage.fromUs = sim::SimTime::hours(1).toMicros();
  outage.toUs = sim::SimTime::hours(3).toMicros();
  outage.region = 1;
  plan.outages.push_back(outage);
  fault::FlashCrowdStage crowd;
  crowd.fromUs = sim::SimTime::hours(5).toMicros();
  crowd.toUs = sim::SimTime::hours(6).toMicros();
  crowd.fraction = 0.5;
  plan.flashCrowds.push_back(crowd);
  return std::make_unique<fault::OutageOverlayModel>(makeMarkov(), plan);
}

/// Walk the clock through t=0, mid-epoch, the last instant of an epoch,
/// exactly the next boundary (the first read after a crossing, so a stale
/// table fails), an instant inside each forcing window, and past the
/// horizon (clamped). At each, every table answer must equal the model's
/// own answer bit for bit.
void expectTableMatchesModel(const trace::AvailabilityModel& model) {
  sim::Simulator sim;
  OracleAvailabilityService oracle(model, sim);
  const sim::SimDuration epoch = model.epochDuration();
  const sim::SimTime instants[] = {
      sim::SimTime::zero(),
      epoch * 5 + sim::SimDuration::minutes(7),
      epoch * 6 - sim::SimDuration::micros(1),
      epoch * 6,
      epoch * 16 + sim::SimDuration::minutes(3),
      epoch * static_cast<std::int64_t>(model.epochCount() + 10),
  };
  const auto n = static_cast<NodeIndex>(model.hostCount());
  std::vector<std::uint64_t> previous;
  for (const sim::SimTime t : instants) {
    sim.runUntil(t);
    std::vector<std::uint64_t> answers;
    for (NodeIndex h = 0; h < n; ++h) {
      const bool online = oracle.online(h);
      const double av = oracle.availability(h);
      ASSERT_EQ(online, model.onlineAt(h, t))
          << "host " << h << " at " << t.toMicros();
      ASSERT_EQ(std::bit_cast<std::uint64_t>(av),
                std::bit_cast<std::uint64_t>(model.availabilityAt(h, t)))
          << "host " << h << " at " << t.toMicros();
      ASSERT_EQ(std::bit_cast<std::uint64_t>(*oracle.query((h + 1) % n, h)),
                std::bit_cast<std::uint64_t>(av));
      answers.push_back(std::bit_cast<std::uint64_t>(av));
    }
    // Every instant lies in a new epoch except the boundary's
    // predecessor; each new epoch must change some answer, so the
    // comparison above would catch a table that was not rebuilt.
    if (!previous.empty() && t != epoch * 6 - sim::SimDuration::micros(1)) {
      EXPECT_NE(answers, previous) << "no answer moved at " << t.toMicros();
    }
    previous = std::move(answers);
  }
}

TEST(OracleServiceTest, TableMatchesRecordedTraceBitForBit) {
  expectTableMatchesModel(makeTrace());
}

TEST(OracleServiceTest, TableMatchesMarkovModelBitForBit) {
  expectTableMatchesModel(*makeMarkov());
}

TEST(OracleServiceTest, TableMatchesOutageOverlayBitForBit) {
  expectTableMatchesModel(*makeOverlay());
}

TEST(OracleServiceTest, OutOfRangeHostThrows) {
  const auto markov = makeMarkov();
  const auto recorded = makeTrace();
  for (const trace::AvailabilityModel* model :
       {static_cast<const trace::AvailabilityModel*>(markov.get()),
        static_cast<const trace::AvailabilityModel*>(&recorded)}) {
    sim::Simulator sim;
    OracleAvailabilityService oracle(*model, sim);
    sim.runUntil(sim::SimTime::hours(2));
    const auto n = static_cast<NodeIndex>(model->hostCount());
    EXPECT_NO_THROW((void)oracle.online(n - 1));
    EXPECT_THROW((void)oracle.online(n), std::out_of_range);
    EXPECT_THROW((void)oracle.availability(n), std::out_of_range);
    EXPECT_THROW((void)oracle.query(0, n), std::out_of_range);
  }
}

TEST(OracleServiceTest, ConcurrentFirstReadMatchesSerialAnswers) {
  // The first read of each new epoch comes from whichever reader gets
  // there first; every reader must still see exactly the serial answers.
  // Even instants read from pool lanes, as the plan phase does. Odd
  // instants read from free threads released by one flag: pool lanes
  // claim tasks through shared atomics that already order a late reader
  // after the rebuilding lane, so only free threads let ThreadSanitizer
  // (in CI) see a table published without acquire/release.
  constexpr std::size_t kHosts = 256;
  constexpr std::size_t kReaders = 8;
  const auto model = makeMarkov(kHosts);
  const auto reference = makeMarkov(kHosts);
  sim::Simulator sim;
  const OracleAvailabilityService oracle(*model, sim);
  sim::WorkerPool pool(4);

  const std::int64_t minutes[] = {0, 30, 50, 61, 300, 330, 2000, 2500};
  for (std::size_t k = 0; k < std::size(minutes); ++k) {
    sim.runUntil(sim::SimTime::minutes(minutes[k]));
    const sim::SimTime now = sim.now();
    std::vector<std::vector<std::uint8_t>> online(
        kReaders, std::vector<std::uint8_t>(kHosts));
    std::vector<std::vector<double>> av(kReaders,
                                        std::vector<double>(kHosts));
    const auto readAll = [&](std::size_t reader) {
      // Readers walk the hosts from different offsets so their first
      // reads land on different hosts.
      for (std::size_t i = 0; i < kHosts; ++i) {
        const auto h = static_cast<NodeIndex>((i + reader * 37) % kHosts);
        online[reader][h] = oracle.online(h) ? 1 : 0;
        av[reader][h] = oracle.availability(h);
      }
    };
    if (k % 2 == 0) {
      pool.run(kReaders, readAll);
    } else {
      std::atomic<bool> go{false};
      std::vector<std::thread> threads;
      for (std::size_t reader = 0; reader < kReaders; ++reader) {
        threads.emplace_back([&go, &readAll, reader] {
          while (!go.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          readAll(reader);
        });
      }
      go.store(true, std::memory_order_release);
      for (auto& th : threads) th.join();
    }
    for (std::size_t reader = 0; reader < kReaders; ++reader) {
      for (NodeIndex h = 0; h < kHosts; ++h) {
        ASSERT_EQ(online[reader][h] != 0, reference->onlineAt(h, now))
            << "reader " << reader << " host " << h << " at "
            << now.toMicros();
        ASSERT_EQ(std::bit_cast<std::uint64_t>(av[reader][h]),
                  std::bit_cast<std::uint64_t>(
                      reference->availabilityAt(h, now)))
            << "reader " << reader << " host " << h << " at "
            << now.toMicros();
      }
    }
  }
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
