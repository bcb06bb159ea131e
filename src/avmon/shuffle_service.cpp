#include "avmon/shuffle_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "avmon/view_merge.hpp"

namespace avmem::avmon {

using net::NodeIndex;

namespace {

/// Leg indices keying the per-exchange `Rng::stream`s: the responder's
/// reply sampling + merge at request delivery, and the initiator's merge
/// at reply delivery. Distinct legs, independent randomness.
constexpr std::uint64_t kLegRequestDelivery = 0;
constexpr std::uint64_t kLegReplyDelivery = 1;

/// Delivery-batch group fan-out only pays off past a few groups: a
/// back-to-back pool handoff of two trivial tasks costs 0.7–1.0 µs
/// (`BM_PoolRun/2` in bench/micro_sim.cpp, 4 lanes, 4-vCPU Xeon), and a
/// batch that finds the workers parked pays a wakeup on top.
constexpr std::size_t kMinGroupsForFanOut = 4;

}  // namespace

ShuffleService::ShuffleService(sim::Simulator& sim, net::Network& network,
                               std::size_t nodeCount,
                               const ShuffleConfig& config, sim::Rng rng,
                               sim::WorkerPool* pool)
    : sim_(&sim),
      network_(network),
      viewSize_(config.viewSize),
      gossipLength_(config.gossipLength),
      period_(config.period),
      shards_(config.shards),
      rng_(rng),
      pool_(pool),
      views_(nodeCount),
      channel_(sim, network, *this, config.ackTimeout, config.deliveryQuantum,
               rng.fork("shuffle-wire")),
      rounds_(nodeCount, 0) {
  if (nodeCount < 2) {
    throw std::invalid_argument("ShuffleService: need at least two nodes");
  }
  if (config.gossipLength == 0) {
    // take = gossipLength - 1 underflows at 0 and would ship the whole
    // view (plus self) every exchange; a shuffle that exchanges nothing
    // is a configuration error, not a degenerate mode.
    throw std::invalid_argument("ShuffleService: gossipLength must be >= 1");
  }
  if (viewSize_ == 0) {
    viewSize_ = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(nodeCount))));
  }
  // Only N-1 distinct non-self peers exist; without the clamp the
  // bootstrap loop below could never fill the view.
  viewSize_ = std::min(viewSize_, nodeCount - 1);
  gossipLength_ = std::min(gossipLength_, viewSize_);
}

void ShuffleService::start() {
  const auto n = static_cast<NodeIndex>(views_.size());
  // Bootstrap: uniformly random distinct peers per node, stored sorted.
  std::vector<NodeIndex> all;
  for (NodeIndex i = 0; i < n; ++i) {
    auto& view = views_[i];
    view.clear();
    if (viewSize_ * 2 >= static_cast<std::size_t>(n) - 1) {
      // Dense views (viewSize close to N): rejection sampling degrades to
      // coupon collecting, so draw a partial Fisher-Yates prefix of the
      // full peer list instead.
      all.clear();
      for (NodeIndex p = 0; p < n; ++p) {
        if (p != i) all.push_back(p);
      }
      for (std::size_t k = 0; k < viewSize_; ++k) {
        const std::size_t j = k + rng_.index(all.size() - k);
        std::swap(all[k], all[j]);
      }
      view.assign(all.begin(),
                  all.begin() + static_cast<std::ptrdiff_t>(viewSize_));
    } else {
      while (view.size() < viewSize_) {
        const auto peer = static_cast<NodeIndex>(rng_.below(n));
        if (peer == i) continue;
        if (std::find(view.begin(), view.end(), peer) != view.end()) continue;
        view.push_back(peer);
      }
    }
    std::sort(view.begin(), view.end());
  }

  rounds_.assign(views_.size(), 0);
  planSeed_ = rng_.fork("shuffle-plan-stream").next();
  wireSeed_ = rng_.fork("shuffle-wire-stream").next();

  startSchedule(slotsFor(rng_), /*arm=*/true);
}

sim::ShardedScheduler::Slots ShuffleService::slotsFor(
    const sim::Rng& rng) const {
  return sim::ShardedScheduler::assignSlots(
      views_.size(), shards_, period_, rng.fork("shuffle-jitter"));
}

void ShuffleService::startSchedule(sim::ShardedScheduler::Slots slots,
                                   bool arm) {
  // Initiations ride a sharded timing wheel in barrier mode: every node
  // still starts one exchange per period at a staggered offset, the event
  // queue holds O(shards) timers, and each slot firing fans its members'
  // plan phases across the pool before committing requests in slot order.
  schedule_.start(
      *sim_, period_, std::move(slots), pool_,
      [this](std::uint32_t i, std::size_t lane) {
        std::as_const(*this).planExchange(static_cast<NodeIndex>(i),
                                          lanes_[lane]);
      },
      [this](std::uint32_t i, std::size_t lane) {
        commitExchange(static_cast<NodeIndex>(i), lanes_[lane]);
      },
      arm);
  lanes_.resize(schedule_.maxSlotPopulation());
}

void ShuffleService::sampleSubsetInto(const std::vector<NodeIndex>& view,
                                      std::size_t maxTake, sim::Rng& rng,
                                      std::vector<NodeIndex>& out) {
  // Partial Fisher-Yates over a copy: the first `take` positions become a
  // uniform sample of the view, and the view itself stays untouched (plan
  // phases must not mutate shared state). The copy is intentional: every
  // shipped configuration keeps views at <= 64 entries (scale scenarios
  // pin 64; paper-default's sqrt(1442) is ~38), so it is one small memcpy
  // — cheaper than an index-override sampler at these sizes.
  out.assign(view.begin(), view.end());
  const std::size_t take = std::min(maxTake, out.size());
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t j = i + rng.index(out.size() - i);
    std::swap(out[i], out[j]);
  }
  out.resize(take);
}

void ShuffleService::planExchange(NodeIndex initiator,
                                  ExchangePlan& plan) const {
  plan.reset();
  const auto& view = views_[initiator];
  if (view.empty()) return;
  if (!network_.isOnline(initiator)) return;  // offline nodes do not gossip

  // Counter-based stream: any worker may draw this node's round
  // randomness without observing other lanes (thread-count invariance).
  sim::Rng rng = sim::Rng::stream(planSeed_, initiator, rounds_[initiator]);
  plan.partner = view[rng.index(view.size())];
  sampleSubsetInto(view, gossipLength_ - 1, rng, plan.offered);
  plan.offered.push_back(initiator);  // CYCLON: advertise the initiator
  plan.active = true;
}

void ShuffleService::commitExchange(NodeIndex initiator,
                                    const ExchangePlan& plan) {
  // Advance the stream counter every firing, planned or not, so a node's
  // randomness is a pure function of (seed, node, firing count).
  ++rounds_[initiator];
  if (!plan.active) return;
  // CYCLON failure handling rides the channel's timeout sentinel: an
  // unresponsive partner comes back as a kTimeout delivery and is
  // evicted, continuously purging dead entries from views.
  channel_.sendRequest(initiator, plan.partner, plan.offered);
}

void ShuffleService::onShuffleBatch(
    std::span<const net::ShuffleDelivery> batch,
    std::vector<net::ShuffleRequestOutcome>& outcomes) {
  using HostClock = std::chrono::steady_clock;
  const auto tGroup = HostClock::now();

  // Group deliveries by the node they mutate. The stable sort keeps batch
  // (= delivery) order within each node, so replaying a group serially is
  // exactly the per-node slice of serial whole-batch processing; group
  // order itself (ascending node) only interleaves independent nodes.
  const std::size_t count = batch.size();
  orderScratch_.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) orderScratch_[i] = i;
  std::stable_sort(orderScratch_.begin(), orderScratch_.end(),
                   [&batch](std::uint32_t a, std::uint32_t b) {
                     return batch[a].node < batch[b].node;
                   });
  groupOf_.resize(count);
  std::size_t groupCount = 0;
  for (std::size_t pos = 0; pos < count; ++pos) {
    const std::uint32_t idx = orderScratch_[pos];
    if (pos == 0 ||
        batch[idx].node != batch[orderScratch_[pos - 1]].node) {
      if (groups_.size() <= groupCount) groups_.emplace_back();
      groups_[groupCount].reset(batch[idx].node);
      ++groupCount;
    }
    groups_[groupCount - 1].records.push_back(idx);
    groupOf_[idx] = static_cast<std::uint32_t>(groupCount - 1);
  }

  // Plan: each group replays its deliveries against a working copy of its
  // node's view — reads only that view, the wire arena (frozen during the
  // batch), and per-exchange counter streams, so groups fan out across
  // the pool race-free. Only this fan-out counts as plan wall; the
  // grouping above and the install below are serial and billed to commit
  // so the reported plan share stays an honest Amdahl fraction.
  auto planOne = [this, &batch](std::size_t g) {
    planGroup(batch, groups_[g]);
  };
  const auto t0 = HostClock::now();
  if (pool_ != nullptr && pool_->threadCount() > 1 &&
      groupCount >= kMinGroupsForFanOut) {
    pool_->run(groupCount, planOne);
  } else {
    for (std::size_t g = 0; g < groupCount; ++g) planOne(g);
  }
  const auto t1 = HostClock::now();

  // Commit: install the new views in deterministic group order, then
  // assemble request outcomes in batch order (the channel emits replies
  // and acks from them).
  for (std::size_t g = 0; g < groupCount; ++g) {
    DeliveryGroup& group = groups_[g];
    views_[group.node].swap(group.view);
    completedShuffles_ += group.completed;
  }
  groupCursor_.assign(groupCount, 0);
  for (std::size_t i = 0; i < count; ++i) {
    if (batch[i].kind != net::ShuffleMsg::Kind::kRequest) continue;
    DeliveryGroup& group = groups_[groupOf_[i]];
    const auto [off, len] = group.replySpans[groupCursor_[groupOf_[i]]++];
    outcomes.push_back(
        {true, {group.replyPool.data() + off, len}});
  }
  const auto t2 = HostClock::now();
  drainPlanNs_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  drainCommitNs_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>((t0 - tGroup) +
                                                           (t2 - t1))
          .count());
}

void ShuffleService::planGroup(std::span<const net::ShuffleDelivery> batch,
                               DeliveryGroup& group) const {
  const NodeIndex self = group.node;
  group.view.assign(views_[self].begin(), views_[self].end());
  for (const std::uint32_t idx : group.records) {
    const net::ShuffleDelivery& d = batch[idx];
    switch (d.kind) {
      case net::ShuffleMsg::Kind::kRequest: {
        // Respond with our own subset, then merge theirs (the reply
        // carries only view entries — CYCLON replies do not advertise
        // the responder).
        sim::Rng rng = sim::Rng::stream(wireSeed_, d.seq, kLegRequestDelivery);
        sampleSubsetInto(group.view, gossipLength_ - 1, rng, group.scratch);
        const auto off = static_cast<std::uint32_t>(group.replyPool.size());
        group.replyPool.insert(group.replyPool.end(), group.scratch.begin(),
                               group.scratch.end());
        group.replySpans.emplace_back(
            off, static_cast<std::uint32_t>(group.scratch.size()));
        mergeView(group.view, self, viewSize_, d.payload, group.scratch, rng);
        ++group.completed;
        break;
      }
      case net::ShuffleMsg::Kind::kReply: {
        // `echo` is the payload this node offered, still carrying the
        // trailing self-entry; it was never part of the view, so drop it
        // before treating the echo as replaceable slots.
        sim::Rng rng = sim::Rng::stream(wireSeed_, d.seq, kLegReplyDelivery);
        std::span<const NodeIndex> echo = d.echo;
        if (!echo.empty() && echo.back() == self) {
          echo = echo.first(echo.size() - 1);
        }
        mergeView(group.view, self, viewSize_, d.payload, echo, rng);
        break;
      }
      case net::ShuffleMsg::Kind::kTimeout: {
        eraseSorted(group.view, d.peer);
        break;
      }
      case net::ShuffleMsg::Kind::kAck:
        break;  // settled inside the channel; never delivered
    }
  }
}

void ShuffleService::eraseSorted(std::vector<NodeIndex>& view,
                                 NodeIndex dead) {
  const auto it = std::lower_bound(view.begin(), view.end(), dead);
  if (it != view.end() && *it == dead) view.erase(it);
}

std::uint64_t ShuffleService::viewDigest() const noexcept {
  const auto mix = [](std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return h;
  };
  std::uint64_t digest = 0;
  for (const auto& view : views_) {
    digest = mix(digest, view.size());
    for (const NodeIndex peer : view) digest = mix(digest, peer);
  }
  return digest;
}

}  // namespace avmem::avmon
