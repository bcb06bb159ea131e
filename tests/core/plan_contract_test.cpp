// The plan/commit contract as a property of the types.
//
// Plan phases run concurrently on worker lanes, so they may only read
// shared state. Every plan function is a const member, and the state it
// reaches is const there: the node's ProtocolContext, the candidate
// feed, the engine's nodes and simulator, the shuffle channel and every
// random generator. The checks below pin that const access cannot
// mutate any of them. Each negative check has a positive twin on the
// mutable type, so a misspelt requirement cannot pass vacuously.
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "avmon/availability_service.hpp"
#include "core/avmem_node.hpp"
#include "core/candidate_feed.hpp"
#include "net/network.hpp"
#include "net/shuffle_channel.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace avmem::core {
namespace {

using net::NodeIndex;

// --- the node's context: it can read the clock, never schedule ------------

template <class Ctx>
concept SchedulesThroughSim = requires(Ctx& ctx, sim::Simulator::Callback fn) {
  ctx.sim.schedule(sim::SimDuration::zero(), fn);
};
template <class Ctx>
concept ReadsClock = requires(Ctx& ctx) {
  { ctx.sim.now() } -> std::same_as<sim::SimTime>;
};

struct MutableSimHolder {
  sim::Simulator& sim;
};
static_assert(SchedulesThroughSim<MutableSimHolder>);
static_assert(!SchedulesThroughSim<const ProtocolContext>);
static_assert(!SchedulesThroughSim<ProtocolContext>);
static_assert(ReadsClock<const ProtocolContext>);

// --- the monitoring service answers through const access --------------------

template <class S>
concept Queries = requires(S& service) {
  { service.query(NodeIndex{0}, NodeIndex{1}) }
      -> std::same_as<std::optional<double>>;
};
static_assert(Queries<const avmon::AvailabilityService>);

// --- randomness: a const generator only forks; draws need a local one -------

template <class R>
concept DrawsNext = requires(R& rng) { rng.next(); };
template <class R>
concept DrawsBelow = requires(R& rng) { rng.below(std::uint64_t{2}); };
template <class R>
concept DrawsIndex = requires(R& rng) { rng.index(std::size_t{2}); };
template <class R>
concept Forks = requires(R& rng) {
  { rng.fork("label") } -> std::same_as<sim::Rng>;
};
template <class R>
concept Streams = requires(R& rng) {
  { rng.stream(1, 2, 3) } -> std::same_as<sim::Rng>;
};

static_assert(DrawsNext<sim::Rng> && DrawsBelow<sim::Rng> &&
              DrawsIndex<sim::Rng>);
static_assert(!DrawsNext<const sim::Rng>);
static_assert(!DrawsBelow<const sim::Rng>);
static_assert(!DrawsIndex<const sim::Rng>);
static_assert(Forks<const sim::Rng>);
static_assert(Streams<const sim::Rng>);

// --- the wire: const access can ask who is online, never send ---------------

template <class N>
concept Sends = requires(N& network, net::Network::DeliveryFn fn) {
  network.send(NodeIndex{0}, NodeIndex{1}, fn);
};
template <class N>
concept AsksOnline = requires(N& network) {
  { network.isOnline(NodeIndex{0}) } -> std::same_as<bool>;
};
static_assert(Sends<net::Network>);
static_assert(!Sends<const net::Network>);
static_assert(AsksOnline<const net::Network>);

template <class C>
concept SendsShuffleRequest =
    requires(C& channel, std::span<const NodeIndex> offered) {
      channel.sendRequest(NodeIndex{0}, NodeIndex{1}, offered);
    };
static_assert(SendsShuffleRequest<net::ShuffleChannel>);
static_assert(!SendsShuffleRequest<const net::ShuffleChannel>);

// --- the candidate feed: plans draw, commits publish ------------------------

template <class F>
concept Publishes = requires(F& feed) { feed.publish(NodeIndex{0}, 0.5); };
template <class F>
concept DrawsCandidates = requires(F& feed, std::vector<NodeIndex>& out) {
  feed.drawCandidates(NodeIndex{0}, 0.5, std::uint64_t{0}, out);
};
static_assert(Publishes<CandidateFeed>);
static_assert(!Publishes<const CandidateFeed>);
static_assert(DrawsCandidates<const CandidateFeed>);

// --- the node: const access plans every round, never commits one ------------

template <class N>
concept PlansRounds = requires(N& node, std::span<const NodeIndex> view,
                               MaintenancePlan& plan) {
  node.planDiscovery(view, plan);
  node.planRefresh(plan);
  node.planAdopt(view, plan);
};
template <class N>
concept CommitsRounds = requires(N& node, const MaintenancePlan& plan) {
  node.commitDiscovery(plan);
  node.commitRefresh(plan);
  node.commitAdopt(plan);
};
static_assert(PlansRounds<const AvmemNode>);
static_assert(CommitsRounds<AvmemNode>);
static_assert(!CommitsRounds<const AvmemNode>);

}  // namespace
}  // namespace avmem::core
