#include "trace/overnet_generator.hpp"

#include <gtest/gtest.h>

#include "stats/summary.hpp"
#include "trace/trace_io.hpp"

#include <cstdint>
#include <sstream>
#include <string>

namespace avmem::trace {
namespace {

TEST(OvernetGeneratorTest, PaperScaleDefaults) {
  OvernetTraceConfig cfg;  // defaults = paper scale
  cfg.hosts = 200;         // shrink population for test speed, keep epochs
  const auto t = generateOvernetTrace(cfg);
  EXPECT_EQ(t.hostCount(), 200u);
  EXPECT_EQ(t.epochCount(), 504u);  // 7 days at 20-minute epochs
  EXPECT_EQ(t.epochDuration(), sim::SimDuration::minutes(20));
}

TEST(OvernetGeneratorTest, DeterministicInSeed) {
  OvernetTraceConfig cfg;
  cfg.hosts = 50;
  cfg.epochs = 100;
  const auto a = generateOvernetTrace(cfg);
  const auto b = generateOvernetTrace(cfg);
  for (HostIndex h = 0; h < 50; ++h) {
    for (std::size_t e = 0; e < 100; ++e) {
      ASSERT_EQ(a.onlineInEpoch(h, e), b.onlineInEpoch(h, e));
    }
  }
  cfg.seed = 43;
  const auto c = generateOvernetTrace(cfg);
  std::size_t diffs = 0;
  for (HostIndex h = 0; h < 50; ++h) {
    for (std::size_t e = 0; e < 100; ++e) {
      diffs += (a.onlineInEpoch(h, e) != c.onlineInEpoch(h, e)) ? 1 : 0;
    }
  }
  EXPECT_GT(diffs, 100u);  // a different seed produces a different world
}

TEST(OvernetGeneratorTest, SkewMatchesOvernetCharacterization) {
  // Bhagwan et al.: ~50% of hosts have long-term availability below 0.3.
  OvernetTraceConfig cfg;
  cfg.hosts = 1442;
  const auto t = generateOvernetTrace(cfg);
  std::size_t below03 = 0;
  for (HostIndex h = 0; h < cfg.hosts; ++h) {
    if (t.fullAvailability(h) < 0.3) ++below03;
  }
  const double frac = static_cast<double>(below03) / cfg.hosts;
  EXPECT_NEAR(frac, 0.5, 0.08);
}

TEST(OvernetGeneratorTest, FullPopulationSpansAvailabilitySpectrum) {
  OvernetTraceConfig cfg;
  cfg.hosts = 1000;
  const auto t = generateOvernetTrace(cfg);
  stats::Summary s;
  for (HostIndex h = 0; h < cfg.hosts; ++h) s.add(t.fullAvailability(h));
  EXPECT_LT(s.min(), 0.1);
  EXPECT_GT(s.max(), 0.95);
  EXPECT_GT(s.mean(), 0.3);
  EXPECT_LT(s.mean(), 0.6);
}

TEST(OvernetGeneratorTest, StationaryMarkovTracksIntrinsicAvailability) {
  // With the mixture collapsed to a point mass, every host's measured
  // availability must concentrate around the intrinsic value.
  OvernetTraceConfig cfg;
  cfg.hosts = 60;
  cfg.epochs = 2000;
  cfg.diurnalAmplitude = 0.0;
  cfg.lowWeight = 1.0;
  cfg.lowMin = cfg.lowMax = 0.4;
  cfg.midWeight = cfg.highWeight = cfg.serverWeight = 0.0;
  const auto t = generateOvernetTrace(cfg);
  stats::Summary s;
  for (HostIndex h = 0; h < cfg.hosts; ++h) s.add(t.fullAvailability(h));
  EXPECT_NEAR(s.mean(), 0.4, 0.03);
}

TEST(OvernetGeneratorTest, SessionLengthsFollowMeanParameter) {
  // Mean online-run length must track meanSessionEpochs.
  OvernetTraceConfig cfg;
  cfg.hosts = 40;
  cfg.epochs = 3000;
  cfg.diurnalAmplitude = 0.0;
  cfg.lowWeight = 1.0;
  cfg.lowMin = cfg.lowMax = 0.5;
  cfg.midWeight = cfg.highWeight = cfg.serverWeight = 0.0;
  cfg.meanSessionEpochs = 4.0;
  const auto t = generateOvernetTrace(cfg);

  std::uint64_t runs = 0;
  std::uint64_t onEpochs = 0;
  for (HostIndex h = 0; h < cfg.hosts; ++h) {
    bool prev = false;
    for (std::size_t e = 0; e < cfg.epochs; ++e) {
      const bool on = t.onlineInEpoch(h, e);
      if (on) {
        ++onEpochs;
        if (!prev) ++runs;
      }
      prev = on;
    }
  }
  const double meanRun =
      static_cast<double>(onEpochs) / static_cast<double>(runs);
  EXPECT_NEAR(meanRun, 4.0, 0.5);
}

TEST(OvernetGeneratorTest, RejectsEmptyConfigs) {
  OvernetTraceConfig cfg;
  cfg.hosts = 0;
  EXPECT_THROW(generateOvernetTrace(cfg), std::invalid_argument);
  cfg.hosts = 10;
  cfg.epochs = 0;
  EXPECT_THROW(generateOvernetTrace(cfg), std::invalid_argument);
  cfg.epochs = 10;
  cfg.lowWeight = cfg.midWeight = cfg.highWeight = cfg.serverWeight = 0.0;
  EXPECT_THROW(generateOvernetTrace(cfg), std::invalid_argument);
}

/// FNV-1a over the timeline, row by row: a change to any (host, epoch)
/// cell, or to the matrix shape, changes the value.
std::uint64_t timelineFingerprint(
    const std::vector<std::vector<std::uint8_t>>& timeline) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
  mix(timeline.size());
  for (const auto& row : timeline) {
    mix(row.size());
    for (const std::uint8_t cell : row) mix(cell);
  }
  return h;
}

// The generated world is pinned: the paper-1442 workload, every figure
// bench and the checkpoint fingerprints all stand on these exact bits, so
// a rewrite of the generator must reproduce them, not merely their
// statistics.
TEST(OvernetGeneratorTest, PaperDefaultTimelineIsPinned) {
  const OvernetTraceConfig cfg;  // 1442 hosts x 504 epochs, seed 42
  const auto timeline = generateOvernetTimeline(cfg);
  ASSERT_EQ(timeline.size(), 1442u);
  ASSERT_EQ(timeline.front().size(), 504u);
  EXPECT_EQ(timelineFingerprint(timeline), 0x5d44388091008530ull);
}

TEST(OvernetGeneratorTest, StrongDiurnalTimelineIsPinned) {
  OvernetTraceConfig cfg;
  cfg.hosts = 300;
  cfg.epochs = 777;  // not a whole number of days
  cfg.seed = 7;
  cfg.diurnalAmplitude = 0.6;
  EXPECT_EQ(timelineFingerprint(generateOvernetTimeline(cfg)),
            0xd87fc6bc9336ba50ull);
}

TEST(TraceIoTest, RoundTripsThroughText) {
  OvernetTraceConfig cfg;
  cfg.hosts = 20;
  cfg.epochs = 50;
  const auto t = generateOvernetTrace(cfg);

  std::stringstream buf;
  saveTrace(buf, t);
  const auto loaded = loadTrace(buf);

  ASSERT_EQ(loaded.hostCount(), t.hostCount());
  ASSERT_EQ(loaded.epochCount(), t.epochCount());
  EXPECT_EQ(loaded.epochDuration(), t.epochDuration());
  for (HostIndex h = 0; h < t.hostCount(); ++h) {
    for (std::size_t e = 0; e < t.epochCount(); ++e) {
      ASSERT_EQ(loaded.onlineInEpoch(h, e), t.onlineInEpoch(h, e));
    }
  }
}

TEST(TraceIoTest, RejectsCorruptInput) {
  {
    std::stringstream s("NOT-A-TRACE\n");
    EXPECT_THROW(loadTrace(s), std::runtime_error);
  }
  {
    std::stringstream s("AVMEM-TRACE v1\nhosts 2 epochs 3 epoch_us 100\n101\n");
    EXPECT_THROW(loadTrace(s), std::runtime_error);  // truncated host list
  }
  {
    std::stringstream s(
        "AVMEM-TRACE v1\nhosts 1 epochs 3 epoch_us 100\n1x1\n");
    EXPECT_THROW(loadTrace(s), std::runtime_error);  // invalid character
  }
  {
    std::stringstream s(
        "AVMEM-TRACE v1\nhosts 1 epochs 3 epoch_us 100\n10\n");
    EXPECT_THROW(loadTrace(s), std::runtime_error);  // wrong epoch count
  }
  {
    std::stringstream s("AVMEM-TRACE v1\nhosts 0 epochs 3 epoch_us 100\n");
    EXPECT_THROW(loadTrace(s), std::runtime_error);  // empty population
  }
  // A header's host count sizes nothing: a huge claim over an empty body
  // is a truncated stream, not an allocation failure.
  for (const char* hosts : {"1000000000000", "1000000000000000000"}) {
    SCOPED_TRACE(hosts);
    std::stringstream s(std::string("AVMEM-TRACE v1\nhosts ") + hosts +
                        " epochs 1 epoch_us 1\n");
    try {
      (void)loadTrace(s);
      ADD_FAILURE() << "loadTrace accepted an empty body";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated at host 0"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace avmem::trace
