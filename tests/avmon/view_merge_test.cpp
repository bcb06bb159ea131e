// Differential test of the rank-based CYCLON view merge against the
// lower_bound / erase / insert algorithm it replaced, kept here as the
// reference: every input must give the same view and consume the same
// random draws.
#include "avmon/view_merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace avmem::avmon {
namespace {

using net::NodeIndex;

/// What the reference merge did, summed over cases: where each evicted
/// victim lay relative to the candidate's insert position in the view
/// before the eviction, and how many victims were random draws.
struct Tally {
  std::size_t victimBelow = 0;
  std::size_t victimAt = 0;
  std::size_t victimAbove = 0;
  std::size_t randomEvictions = 0;

  void record(std::ptrdiff_t victim, std::ptrdiff_t insertAt) {
    ++(victim < insertAt    ? victimBelow
       : victim == insertAt ? victimAt
                            : victimAbove);
  }
};

/// The merge as the shuffle service first shipped it, plus the tally.
void referenceMerge(std::vector<NodeIndex>& view, NodeIndex self,
                    std::size_t capacity, std::span<const NodeIndex> offered,
                    std::span<const NodeIndex> sentAway, sim::Rng& rng,
                    Tally& tally) {
  std::size_t replaceCursor = 0;
  for (const NodeIndex candidate : offered) {
    if (candidate == self) continue;
    const auto pos = std::lower_bound(view.begin(), view.end(), candidate);
    if (pos != view.end() && *pos == candidate) continue;
    if (view.size() < capacity) {
      view.insert(pos, candidate);
      continue;
    }
    const auto insertAt = pos - view.begin();
    bool replaced = false;
    while (replaceCursor < sentAway.size()) {
      const NodeIndex target = sentAway[replaceCursor];
      ++replaceCursor;
      const auto it = std::lower_bound(view.begin(), view.end(), target);
      if (it != view.end() && *it == target) {
        tally.record(it - view.begin(), insertAt);
        view.erase(it);
        replaced = true;
        break;
      }
    }
    if (!replaced) {
      const auto victim = static_cast<std::ptrdiff_t>(rng.index(view.size()));
      tally.record(victim, insertAt);
      ++tally.randomEvictions;
      view.erase(view.begin() + victim);
    }
    view.insert(std::lower_bound(view.begin(), view.end(), candidate),
                candidate);
  }
}

/// `count` distinct ids drawn from [0, universe), sorted.
std::vector<NodeIndex> sortedSample(sim::Rng& rng, std::size_t count,
                                    NodeIndex universe) {
  std::vector<NodeIndex> all(universe);
  for (NodeIndex i = 0; i < universe; ++i) all[i] = i;
  for (std::size_t k = 0; k < count; ++k) {
    std::swap(all[k], all[k + rng.index(all.size() - k)]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

TEST(ShuffleViewMergeTest, RankMergeMatchesReferenceOnRandomInputs) {
  constexpr int kCases = 20000;
  sim::Rng gen(20070101);
  Tally tally;
  std::size_t selfOffered = 0;
  std::size_t duplicateOffers = 0;
  std::size_t absentSentAway = 0;
  std::size_t underCapacity = 0;
  std::size_t emptyViews = 0;

  for (int c = 0; c < kCases; ++c) {
    const std::size_t capacity = 1 + gen.index(64);
    const auto universe =
        static_cast<NodeIndex>(capacity + 2 + gen.index(3 * capacity + 8));
    // Full views dominate at run time; also draw under-full and empty
    // ones.
    std::size_t size = capacity;
    switch (gen.index(4)) {
      case 0:
        size = gen.index(capacity + 1);
        break;
      case 1:
        size = c % 16 == 0 ? 0 : capacity;
        break;
      default:
        break;
    }
    std::vector<NodeIndex> view = sortedSample(gen, size + 1, universe);
    // One sampled id not in the view plays `self`.
    const std::size_t selfAt = gen.index(view.size());
    const NodeIndex self = view[selfAt];
    view.erase(view.begin() + static_cast<std::ptrdiff_t>(selfAt));

    std::vector<NodeIndex> offered(gen.index(34));
    for (auto& id : offered) {
      id = static_cast<NodeIndex>(gen.below(universe));
    }
    if (!offered.empty() && gen.chance(0.3)) {
      offered[gen.index(offered.size())] = self;
    }
    if (offered.size() > 1 && gen.chance(0.3)) {
      offered[gen.index(offered.size())] = offered[0];
    }
    // sentAway: mostly entries of the view, some never in it; a short one
    // runs out and leaves later evictions to the random draw.
    std::vector<NodeIndex> sentAway(gen.index(std::min<std::size_t>(
        view.size() + 2, 33)));
    for (auto& id : sentAway) {
      id = !view.empty() && gen.chance(0.8)
               ? view[gen.index(view.size())]
               : static_cast<NodeIndex>(gen.below(universe));
    }

    selfOffered += std::count(offered.begin(), offered.end(), self) > 0;
    duplicateOffers +=
        std::any_of(offered.begin(), offered.end(), [&](NodeIndex id) {
          return std::count(offered.begin(), offered.end(), id) > 1;
        });
    absentSentAway +=
        std::any_of(sentAway.begin(), sentAway.end(), [&](NodeIndex id) {
          return !std::binary_search(view.begin(), view.end(), id);
        });
    underCapacity += view.size() < capacity;
    emptyViews += view.empty();

    const std::uint64_t seed = gen.next();
    std::vector<NodeIndex> want = view;
    sim::Rng wantRng(seed);
    referenceMerge(want, self, capacity, offered, sentAway, wantRng, tally);

    std::vector<NodeIndex> got = view;
    sim::Rng gotRng(seed);
    mergeView(got, self, capacity, offered, sentAway, gotRng);

    ASSERT_EQ(got, want) << "case " << c;
    // Same number of random draws: the streams stay in step.
    ASSERT_EQ(gotRng.next(), wantRng.next()) << "case " << c;
    ASSERT_TRUE(std::is_sorted(got.begin(), got.end()));
    ASSERT_LE(got.size(), std::max(capacity, view.size()));
  }

  // Every branch the generator aims at was taken many times.
  EXPECT_GT(selfOffered, 1000u);
  EXPECT_GT(duplicateOffers, 1000u);
  EXPECT_GT(absentSentAway, 1000u);
  EXPECT_GT(tally.randomEvictions, 1000u);
  EXPECT_GT(underCapacity, 1000u);
  EXPECT_GT(emptyViews, 100u);
  EXPECT_GT(tally.victimBelow, 1000u);
  EXPECT_GT(tally.victimAt, 100u);
  EXPECT_GT(tally.victimAbove, 1000u);
}

TEST(ShuffleViewMergeTest, RankBelowIsTheLowerBoundPosition) {
  const std::vector<NodeIndex> view = {2, 3, 5, 8, 13};
  for (NodeIndex x = 0; x < 16; ++x) {
    const auto want = static_cast<std::size_t>(
        std::lower_bound(view.begin(), view.end(), x) - view.begin());
    EXPECT_EQ(rankBelow(view, x), want) << "x=" << x;
  }
  EXPECT_EQ(rankBelow({}, 7), 0u);
}

}  // namespace
}  // namespace avmem::avmon
