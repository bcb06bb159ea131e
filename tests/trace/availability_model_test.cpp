// Reference check for the recorded trace: ChurnTrace packs its input byte
// matrix into 64-epoch words with per-word counts, and every query the
// interface offers must equal a brute-force count over that matrix —
// including at epoch counts on either side of a word boundary.
#include "trace/availability_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/random.hpp"
#include "trace/churn_trace.hpp"
#include "trace/overnet_generator.hpp"

namespace avmem::trace {
namespace {

using Timeline = std::vector<std::vector<std::uint8_t>>;

Timeline randomTimeline(std::size_t hosts, std::size_t epochs,
                        std::uint64_t seed, double pOn) {
  sim::Rng rng(seed);
  Timeline t(hosts);
  for (auto& row : t) {
    row.resize(epochs);
    for (auto& v : row) v = rng.chance(pOn) ? 1 : 0;
  }
  return t;
}

/// Online epochs of `row` in [first, last], counted one by one.
std::uint64_t countOnline(const std::vector<std::uint8_t>& row,
                          std::size_t first, std::size_t last) {
  std::uint64_t n = 0;
  for (std::size_t e = first; e <= last; ++e) n += row[e] != 0 ? 1 : 0;
  return n;
}

void expectMatchesTimeline(const ChurnTrace& trace, const Timeline& timeline,
                           sim::SimDuration dur) {
  const std::size_t epochs = timeline.front().size();
  ASSERT_EQ(trace.hostCount(), timeline.size());
  ASSERT_EQ(trace.epochCount(), epochs);
  ASSERT_EQ(trace.epochDuration(), dur);
  for (HostIndex h = 0; h < timeline.size(); ++h) {
    const std::vector<std::uint8_t>& row = timeline[h];
    EXPECT_DOUBLE_EQ(trace.fullAvailability(h),
                     static_cast<double>(countOnline(row, 0, epochs - 1)) /
                         static_cast<double>(epochs))
        << h;
    for (std::size_t e = 0; e < epochs; ++e) {
      const std::uint64_t through = countOnline(row, 0, e);
      ASSERT_EQ(trace.onlineInEpoch(h, e), row[e] != 0)
          << "host " << h << " epoch " << e;
      ASSERT_EQ(trace.onlineEpochsThrough(h, e), through)
          << "host " << h << " epoch " << e;
      ASSERT_DOUBLE_EQ(trace.availabilityUpToEpoch(h, e),
                       static_cast<double>(through) /
                           static_cast<double>(e + 1))
          << "host " << h << " epoch " << e;
      for (const std::size_t w : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{65},
                                  epochs + 3}) {
        const std::size_t first = e + 1 >= w ? e + 1 - w : 0;
        ASSERT_DOUBLE_EQ(trace.windowedAvailability(h, e, w),
                         static_cast<double>(countOnline(row, first, e)) /
                             static_cast<double>(e + 1 - first))
            << "host " << h << " epoch " << e << " window " << w;
      }
    }
    // onlineAt exercises the shared epochAt clamping.
    ASSERT_EQ(trace.onlineAt(h, sim::SimTime::zero()), row[0] != 0);
    ASSERT_EQ(trace.onlineAt(h, dur * 3 + sim::SimDuration::micros(1)),
              row[std::min<std::size_t>(3, epochs - 1)] != 0);
    ASSERT_EQ(trace.onlineAt(h, dur * static_cast<std::int64_t>(epochs + 10)),
              row[epochs - 1] != 0);
  }
  for (std::size_t e = 0; e < epochs; ++e) {
    std::vector<HostIndex> online;
    for (HostIndex h = 0; h < timeline.size(); ++h) {
      if (timeline[h][e] != 0) online.push_back(h);
    }
    ASSERT_EQ(trace.onlineCountInEpoch(e), online.size()) << e;
    ASSERT_EQ(trace.onlineHostsInEpoch(e), online) << e;
  }
}

TEST(ChurnTraceReferenceTest, RandomTimelinesMatchBruteForce) {
  const auto dur = sim::SimDuration::minutes(20);
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    for (const double pOn : {0.05, 0.5, 0.95}) {
      // Epoch counts straddling one and two 64-bit words.
      for (const std::size_t epochs :
           {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65},
            std::size_t{128}, std::size_t{129}, std::size_t{200}}) {
        const Timeline timeline = randomTimeline(7, epochs, seed, pOn);
        expectMatchesTimeline(ChurnTrace(timeline, dur), timeline, dur);
      }
    }
  }
}

TEST(ChurnTraceReferenceTest, SyntheticOvernetTimelineMatchesBruteForce) {
  OvernetTraceConfig cfg;
  cfg.hosts = 60;
  cfg.epochs = 7 * 24 * 3;
  cfg.seed = 4242;
  const Timeline timeline = generateOvernetTimeline(cfg);
  expectMatchesTimeline(generateOvernetTrace(cfg), timeline,
                        cfg.epochDuration);
}

TEST(ChurnTraceReferenceTest, RejectsMalformedInput) {
  const auto dur = sim::SimDuration::minutes(1);
  EXPECT_THROW(ChurnTrace({}, dur), std::invalid_argument);
  EXPECT_THROW(ChurnTrace({{}}, dur), std::invalid_argument);
  EXPECT_THROW(ChurnTrace({{1, 0}, {1}}, dur), std::invalid_argument);
  EXPECT_THROW(ChurnTrace({{1}}, sim::SimDuration::zero()),
               std::invalid_argument);
}

TEST(ChurnTraceReferenceTest, RangeChecks) {
  const ChurnTrace trace(randomTimeline(3, 10, 5, 0.5),
                         sim::SimDuration::minutes(20));
  EXPECT_THROW((void)trace.onlineInEpoch(3, 0), std::out_of_range);
  EXPECT_THROW((void)trace.onlineInEpoch(0, 10), std::out_of_range);
  EXPECT_THROW((void)trace.onlineEpochsThrough(0, 10), std::out_of_range);
  EXPECT_THROW((void)trace.availabilityUpToEpoch(7, 0), std::out_of_range);
  EXPECT_THROW((void)trace.onlineCountInEpoch(10), std::out_of_range);
}

TEST(ChurnTraceReferenceTest, PaperSizedTraceIsAtMostAQuarterBytePerHostEpoch) {
  // The paper's 1442 hosts x 7 days of 20-minute epochs: 8 words and 8
  // counts per host, ~0.19 B per host-epoch.
  constexpr std::size_t kHosts = 1442;
  constexpr std::size_t kEpochs = 504;
  const ChurnTrace trace(randomTimeline(kHosts, kEpochs, 7, 0.3),
                         sim::SimDuration::minutes(20));
  EXPECT_LE(static_cast<double>(trace.memoryFootprintBytes()),
            0.25 * static_cast<double>(kHosts * kEpochs));
}

}  // namespace
}  // namespace avmem::trace
