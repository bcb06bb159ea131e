#include "core/membership_engine.hpp"

#include <algorithm>
#include <span>
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
  return sim::ShardedScheduler::assignSlots(nodes_->size(), config_.shards,
                                            config_.discoveryPeriod,
                                            rng_.fork("discovery-jitter"));
}

sim::ShardedScheduler::Slots MembershipEngine::refreshSlots() const {
  // The view overlay rebuilds its list every round: no refresh wheel.
  if (config_.coarseViewOverlay) return {};
  return sim::ShardedScheduler::assignSlots(nodes_->size(), config_.shards,
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
    std::as_const(*this).planTick(Round::kDiscovery, i, lanes_[lane]);
  };
  auto discoveryCommit = [this](std::uint32_t i, std::size_t lane) {
    commitTick(Round::kDiscovery, i, lanes_[lane]);
  };
  discovery_.start(*sim_, config_.discoveryPeriod, std::move(discovery),
                   pool_, discoveryPlan, discoveryCommit, arm);

  // Refresh: every refresh period, re-validate both slivers (the view
  // overlay runs none: its refreshSlots() are empty).
  auto refreshPlan = [this](std::uint32_t i, std::size_t lane) {
    std::as_const(*this).planTick(Round::kRefresh, i, lanes_[lane]);
  };
  auto refreshCommit = [this](std::uint32_t i, std::size_t lane) {
    commitTick(Round::kRefresh, i, lanes_[lane]);
  };
  refresh_.start(*sim_, config_.refreshPeriod, std::move(refresh), pool_,
                 refreshPlan, refreshCommit, arm);

  lanes_.resize(std::max(discovery_.maxSlotPopulation(),
                         refresh_.maxSlotPopulation()));
}

void MembershipEngine::stop() {
  discovery_.stop();
  refresh_.stop();
  started_ = false;
}

void MembershipEngine::planTick(Round round, NodeIndex i, Lane& lane) const {
  MaintenancePlan& plan = lane.plan;
  plan.reset();
  plan.online = oracle_.online(i);
  if (!plan.online) return;
  const AvmemNode& node = (*nodes_)[i];
  if (round == Round::kRefresh) {
    node.planRefresh(plan);
    return;
  }
  const std::span<const NodeIndex> view = views_.viewOf(i);
  if (config_.coarseViewOverlay) {
    node.planAdopt(view, plan);
  } else if (feed_) {
    // Merge the coarse view with the rendezvous feed's draws before the
    // node evaluates candidates. The buffer is lane-private; the feed
    // dedups against the view prefix and skips the node itself, so the
    // node sees each candidate at most once per round.
    lane.candidates.assign(view.begin(), view.end());
    feed_->drawCandidates(i, node.selfAvailability(),
                          node.stats().discoveryRounds, lane.candidates);
    lane.feedCount =
        static_cast<std::uint32_t>(lane.candidates.size() - view.size());
    node.planDiscovery(lane.candidates, plan);
  } else {
    node.planDiscovery(view, plan);
  }
}

void MembershipEngine::commitTick(Round round, NodeIndex i,
                                  const Lane& lane) {
  const MaintenancePlan& plan = lane.plan;
  if (!plan.online) {
    ++stats_.skippedOffline;
    return;
  }
  AvmemNode& node = (*nodes_)[i];
  if (round == Round::kDiscovery) {
    ++stats_.discoveryRounds;
    if (config_.coarseViewOverlay) {
      node.commitAdopt(plan);
    } else {
      if (feed_) stats_.feedCandidates += lane.feedCount;
      node.commitDiscovery(plan);
    }
  } else {
    ++stats_.refreshRounds;
    node.commitRefresh(plan);
  }
  // Committed rounds re-advertise the node to the rendezvous directory:
  // online nodes refresh their bucket every epoch, offline ones age out.
  if (feed_) feed_->publish(i, node.selfAvailability());
}

}  // namespace avmem::core
