// The streaming Markov backend: determinism (same seed, same timeline,
// regardless of query order), stationary-mean convergence to p_up, and
// O(hosts) memory independent of the horizon.
#include "trace/markov_churn.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sim/random.hpp"
#include "trace/overnet_generator.hpp"

namespace avmem::trace {
namespace {

MarkovChurnConfig smallConfig(std::uint32_t epochs = 500,
                              std::uint64_t seed = 77) {
  MarkovChurnConfig cfg;
  cfg.horizonEpochs = epochs;
  cfg.seed = seed;
  return cfg;
}

TEST(MarkovChurnTest, SameSeedSameTimeline) {
  const std::vector<double> pUp{0.1, 0.3, 0.5, 0.8, 0.99};
  const MarkovChurnModel a(pUp, smallConfig());
  const MarkovChurnModel b(pUp, smallConfig());
  for (HostIndex h = 0; h < pUp.size(); ++h) {
    for (std::size_t e = 0; e < a.epochCount(); ++e) {
      ASSERT_EQ(a.onlineInEpoch(h, e), b.onlineInEpoch(h, e))
          << "host " << h << " epoch " << e;
    }
  }
}

TEST(MarkovChurnTest, DifferentSeedDifferentTimeline) {
  const std::vector<double> pUp(20, 0.5);
  const MarkovChurnModel a(pUp, smallConfig(500, 1));
  const MarkovChurnModel b(pUp, smallConfig(500, 2));
  std::size_t differences = 0;
  for (HostIndex h = 0; h < pUp.size(); ++h) {
    for (std::size_t e = 0; e < a.epochCount(); ++e) {
      differences += a.onlineInEpoch(h, e) != b.onlineInEpoch(h, e) ? 1 : 0;
    }
  }
  EXPECT_GT(differences, 0u);
}

TEST(MarkovChurnTest, AnswersDoNotDependOnQueryOrder) {
  const std::vector<double> pUp{0.2, 0.6, 0.9};
  const MarkovChurnConfig cfg = smallConfig(300, 123);

  // Reference: one forward pass over a fresh model.
  const MarkovChurnModel forward(pUp, cfg);
  std::vector<std::vector<bool>> expected(pUp.size());
  std::vector<std::vector<std::uint64_t>> expectedUp(pUp.size());
  for (HostIndex h = 0; h < pUp.size(); ++h) {
    for (std::size_t e = 0; e < cfg.horizonEpochs; ++e) {
      expected[h].push_back(forward.onlineInEpoch(h, e));
      expectedUp[h].push_back(forward.onlineEpochsThrough(h, e));
    }
  }

  // Reverse order, fresh model.
  const MarkovChurnModel reverse(pUp, cfg);
  for (HostIndex h = 0; h < pUp.size(); ++h) {
    for (std::size_t e = cfg.horizonEpochs; e-- > 0;) {
      ASSERT_EQ(reverse.onlineInEpoch(h, e), expected[h][e])
          << "host " << h << " epoch " << e;
      ASSERT_EQ(reverse.onlineEpochsThrough(h, e), expectedUp[h][e])
          << "host " << h << " epoch " << e;
    }
  }

  // Random access, fresh model.
  const MarkovChurnModel random(pUp, cfg);
  sim::Rng rng(5);
  for (int i = 0; i < 4000; ++i) {
    const auto h = static_cast<HostIndex>(rng.index(pUp.size()));
    const std::size_t e = rng.index(cfg.horizonEpochs);
    ASSERT_EQ(random.onlineInEpoch(h, e), expected[h][e])
        << "host " << h << " epoch " << e;
    ASSERT_EQ(random.onlineEpochsThrough(h, e), expectedUp[h][e])
        << "host " << h << " epoch " << e;
  }
}

TEST(MarkovChurnTest, MeanAvailabilityConvergesToPUp) {
  // Long horizon: the empirical online fraction must approach the
  // stationary parameter for low, mid, high, and near-always-on hosts.
  const std::vector<double> pUp{0.1, 0.3, 0.5, 0.7, 0.9, 0.98};
  const MarkovChurnModel model(pUp, smallConfig(20'000, 9));
  const std::size_t last = model.epochCount() - 1;
  for (HostIndex h = 0; h < pUp.size(); ++h) {
    const double empirical = model.availabilityUpToEpoch(h, last);
    EXPECT_NEAR(empirical, pUp[h], 0.03) << "host " << h;
    // fullAvailability reports the exact stationary value.
    EXPECT_DOUBLE_EQ(model.fullAvailability(h), pUp[h]);
  }
}

TEST(MarkovChurnTest, WindowedAvailabilityMatchesManualCount) {
  const std::vector<double> pUp{0.4};
  const MarkovChurnModel model(pUp, smallConfig(200, 3));
  for (const std::size_t e : {std::size_t{10}, std::size_t{64},
                              std::size_t{150}}) {
    for (const std::size_t w : {std::size_t{5}, std::size_t{64},
                                std::size_t{300}}) {
      const std::size_t first = (e + 1 >= w) ? e + 1 - w : 0;
      double manual = 0;
      for (std::size_t k = first; k <= e; ++k) {
        manual += model.onlineInEpoch(0, k) ? 1 : 0;
      }
      manual /= static_cast<double>(e + 1 - first);
      EXPECT_DOUBLE_EQ(model.windowedAvailability(0, e, w), manual)
          << "epoch " << e << " window " << w;
    }
  }
}

TEST(MarkovChurnTest, MemoryIsIndependentOfHorizon) {
  const std::vector<double> pUp(1000, 0.5);
  const MarkovChurnModel shortModel(pUp, smallConfig(100, 1));
  const MarkovChurnModel longModel(pUp, smallConfig(1'000'000, 1));
  EXPECT_EQ(shortModel.memoryFootprintBytes(),
            longModel.memoryFootprintBytes());
  // ~tens of bytes per host: 1M hosts stays well under the 100 MB budget.
  EXPECT_LT(longModel.memoryFootprintBytes() / pUp.size(), 100u);
}

TEST(MarkovChurnTest, OvernetMixtureMatchesGeneratorMarginal) {
  // The OvernetTraceConfig constructor draws the same per-host intrinsic
  // availabilities as the materialized generator (same fork, same order):
  // fullAvailability here equals the long-run mean the recorded trace
  // converges to. Spot-check the marginal shape.
  OvernetTraceConfig cfg;
  cfg.hosts = 2000;
  cfg.epochs = 100;
  cfg.seed = 20070101;
  const MarkovChurnModel model(cfg);
  sim::Rng root(cfg.seed);
  sim::Rng mixRng = root.fork("intrinsic-availability");
  for (HostIndex h = 0; h < cfg.hosts; ++h) {
    EXPECT_DOUBLE_EQ(model.pUp(h), sampleIntrinsicAvailability(cfg, mixRng));
  }
}

TEST(MarkovChurnTest, RangeChecksMatchRecordedBackends) {
  const std::vector<double> pUp{0.5, 0.5};
  const MarkovChurnModel model(pUp, smallConfig(10, 1));
  EXPECT_THROW((void)model.onlineInEpoch(2, 0), std::out_of_range);
  EXPECT_THROW((void)model.onlineInEpoch(0, 10), std::out_of_range);
  EXPECT_THROW((void)model.fullAvailability(9), std::out_of_range);
  // Times past the horizon clamp, like a recorded trace's final state.
  EXPECT_NO_THROW((void)model.onlineAt(0, sim::SimDuration::days(400)));
}

TEST(MarkovChurnTest, ConcurrentQueriesMatchSerialAnswers) {
  // The parallel maintenance plan phase queries the model from many
  // threads at once; the per-host cursor is a relaxed atomic word, so
  // racing queries must stay data-race-free (ThreadSanitizer checks this
  // in CI) and return exactly the serial answers.
  std::vector<double> pUp;
  sim::Rng rng(404);
  for (int h = 0; h < 64; ++h) pUp.push_back(0.05 + 0.9 * rng.uniform());
  const MarkovChurnModel model(pUp, smallConfig(256));

  // Serial ground truth, computed on a fresh identical model so the
  // shared model's cursors start cold for the concurrent phase.
  const MarkovChurnModel reference(pUp, smallConfig(256));
  std::vector<std::uint8_t> online(64 * 256);
  std::vector<std::uint64_t> through(64 * 256);
  for (HostIndex h = 0; h < 64; ++h) {
    for (std::size_t e = 0; e < 256; ++e) {
      online[h * 256 + e] = reference.onlineInEpoch(h, e) ? 1 : 0;
      through[h * 256 + e] = reference.onlineEpochsThrough(h, e);
    }
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&model, &online, &through, &mismatches, t] {
      // Each thread queries every host in a different epoch pattern, so
      // threads collide on the same hosts while moving cursors forward,
      // backward, and randomly.
      sim::Rng order(1000 + t);
      for (int iter = 0; iter < 2000; ++iter) {
        const auto h = static_cast<HostIndex>(order.below(64));
        const auto e = static_cast<std::size_t>(order.below(256));
        if (model.onlineInEpoch(h, e) != (online[h * 256 + e] != 0) ||
            model.onlineEpochsThrough(h, e) != through[h * 256 + e]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(MarkovChurnTest, RejectsMalformedConfig) {
  EXPECT_THROW(MarkovChurnModel({}, smallConfig()), std::invalid_argument);
  EXPECT_THROW(MarkovChurnModel({0.5}, smallConfig(0)),
               std::invalid_argument);
  MarkovChurnConfig bad = smallConfig();
  bad.epochDuration = sim::SimDuration::zero();
  EXPECT_THROW(MarkovChurnModel({0.5}, bad), std::invalid_argument);
  bad = smallConfig();
  bad.meanSessionEpochs = 0.0;
  EXPECT_THROW(MarkovChurnModel({0.5}, bad), std::invalid_argument);
}

}  // namespace
}  // namespace avmem::trace
