#include "core/membership_engine.hpp"

#include <algorithm>
#include <utility>

namespace avmem::core {

using net::NodeIndex;

void MembershipEngine::start() {
  startImpl(discoverySlots(), refreshSlots(), /*arm=*/true);
}

void MembershipEngine::prepareResume(sim::ShardedScheduler::Slots discovery,
                                     sim::ShardedScheduler::Slots refresh) {
  startImpl(std::move(discovery), std::move(refresh), /*arm=*/false);
}

sim::ShardedScheduler::Slots MembershipEngine::discoverySlots() const {
  return sim::ShardedScheduler::assignSlots(nodes_.size(), config_.shards,
                                            config_.discoveryPeriod,
                                            rng_.fork("discovery-jitter"));
}

sim::ShardedScheduler::Slots MembershipEngine::refreshSlots() const {
  // The view overlay rebuilds its list every round: no refresh wheel.
  if (config_.coarseViewOverlay) return {};
  return sim::ShardedScheduler::assignSlots(nodes_.size(), config_.shards,
                                            config_.refreshPeriod,
                                            rng_.fork("refresh-jitter"));
}

void MembershipEngine::startImpl(sim::ShardedScheduler::Slots discovery,
                                 sim::ShardedScheduler::Slots refresh,
                                 bool arm) {
  if (started_) return;
  started_ = true;

  // Discovery: every protocol period, scan the coarse view. Offline nodes
  // skip the round (they are not running). In coarse-view-overlay mode
  // (Figure-10 baseline) the view *is* the membership list, so the round
  // adopts it wholesale instead.
  auto discoveryPlan = [this](std::uint32_t i, std::size_t lane) {
    planTick(Round::kDiscovery, i, lane);
  };
  auto discoveryCommit = [this](std::uint32_t i, std::size_t lane) {
    commitTick(Round::kDiscovery, i, lane);
  };
  discovery_.start(sim_, config_.discoveryPeriod, std::move(discovery),
                   pool_, discoveryPlan, discoveryCommit, arm);

  // Refresh: every refresh period, re-validate both slivers (the view
  // overlay runs none: its refreshSlots() are empty).
  auto refreshPlan = [this](std::uint32_t i, std::size_t lane) {
    planTick(Round::kRefresh, i, lane);
  };
  auto refreshCommit = [this](std::uint32_t i, std::size_t lane) {
    commitTick(Round::kRefresh, i, lane);
  };
  refresh_.start(sim_, config_.refreshPeriod, std::move(refresh), pool_,
                 refreshPlan, refreshCommit, arm);

  lanes_.resize(std::max(discovery_.maxSlotPopulation(),
                         refresh_.maxSlotPopulation()));
  if (feed_) {
    candidateLanes_.resize(lanes_.size());
    laneFeedCounts_.assign(lanes_.size(), 0);
  }
}

void MembershipEngine::stop() {
  discovery_.stop();
  refresh_.stop();
  started_ = false;
}

void MembershipEngine::planTick(Round round, NodeIndex i, std::size_t lane) {
  MaintenancePlan& plan = lanes_[lane];
  plan.reset();
  plan.online = online_(i);
  if (!plan.online) return;
  if (round == Round::kDiscovery) {
    if (config_.coarseViewOverlay) {
      nodes_[i].planAdopt(view_(i), plan);
    } else if (feed_) {
      // Merge the coarse view with the rendezvous feed's draws before the
      // node evaluates candidates. The buffer is lane-private; the feed
      // dedups against the view prefix and skips the node itself, so the
      // node sees each candidate at most once per round.
      std::vector<net::NodeIndex>& candidates = candidateLanes_[lane];
      const auto view = view_(i);
      candidates.assign(view.begin(), view.end());
      feed_(i, nodes_[i].selfAvailability(),
            nodes_[i].stats().discoveryRounds, candidates);
      laneFeedCounts_[lane] =
          static_cast<std::uint32_t>(candidates.size() - view.size());
      nodes_[i].planDiscovery(candidates, plan);
    } else {
      nodes_[i].planDiscovery(view_(i), plan);
    }
  } else {
    nodes_[i].planRefresh(plan);
  }
}

void MembershipEngine::commitTick(Round round, NodeIndex i,
                                  std::size_t lane) {
  const MaintenancePlan& plan = lanes_[lane];
  if (!plan.online) {
    ++stats_.skippedOffline;
    return;
  }
  if (round == Round::kDiscovery) {
    ++stats_.discoveryRounds;
    if (config_.coarseViewOverlay) {
      nodes_[i].commitAdopt(plan);
    } else {
      if (feed_) stats_.feedCandidates += laneFeedCounts_[lane];
      nodes_[i].commitDiscovery(plan);
    }
  } else {
    ++stats_.refreshRounds;
    nodes_[i].commitRefresh(plan);
  }
  // Committed rounds re-advertise the node to the rendezvous directory:
  // online nodes refresh their bucket every epoch, offline ones age out.
  if (publish_) publish_(i, nodes_[i].selfAvailability());
}

}  // namespace avmem::core
