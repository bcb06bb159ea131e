#include "core/avmem_node.hpp"

#include <cassert>

#include "hash/fast64_batch.hpp"

namespace avmem::core {

std::vector<NeighborEntry> AvmemNode::neighbors(SliverSet set) const {
  std::vector<NeighborEntry> out;
  if (set != SliverSet::kVsOnly) hs_.appendTo(out);
  if (set != SliverSet::kHsOnly) vs_.appendTo(out);
  return out;
}

void AvmemNode::updateSelfAvailability() {
  ++stats_.availabilityQueries;
  if (const auto av = ctx_->availability.query(self_, self_)) {
    selfAv_ = *av;
  }
}

double AvmemNode::planSelfAvailability(MaintenancePlan& plan) const {
  ++plan.availabilityQueries;
  if (const auto av = ctx_->availability.query(self_, self_)) {
    plan.selfAv = *av;
    return *av;
  }
  return selfAv_;
}

MaintenancePlan::PeerEval AvmemNode::planEvaluatePeer(
    NodeIndex peer, const AvmemPredicate::Row& owner,
    MaintenancePlan& plan) const {
  ++plan.availabilityQueries;
  MaintenancePlan::PeerEval ev;
  ev.peer = peer;
  const auto peerAv = ctx_->availability.query(self_, peer);
  if (!peerAv) return ev;

  ev.known = true;
  ev.av = *peerAv;
  ev.kind = owner.classify(ev.av);
  ev.member = owner.evaluate(ctx_->hashOf(self_, peer), ev.av);
  return ev;
}

void AvmemNode::planDiscovery(std::span<const NodeIndex> view,
                              MaintenancePlan& plan) const {
  const auto owner = ctx_->predicate.at(planSelfAvailability(plan));
  if (ctx_->batchHashReady()) {
    planDiscoveryBatch(view, owner, plan);
    return;
  }
  for (const NodeIndex peer : view) {
    if (peer == self_ || knows(peer)) continue;
    const auto ev = planEvaluatePeer(peer, owner, plan);
    if (ev.known && ev.member) plan.evals.push_back(ev);
  }
}

void AvmemNode::planDiscoveryBatch(std::span<const NodeIndex> view,
                                   const AvmemPredicate::Row& owner,
                                   MaintenancePlan& plan) const {
  const std::size_t n = view.size();
  plan.tailScratch.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    plan.tailScratch[i] = ctx_->idTails[view[i]];
  }
  plan.hashScratch.resize(n);
  const hashing::Fast64PairBatch batch(ctx_->pairHash.seed(),
                                       ctx_->idTails[self_]);
  batch.hashMany(plan.tailScratch, plan.hashScratch);

  for (std::size_t i = 0; i < n; ++i) {
    const NodeIndex peer = view[i];
    if (peer == self_ || knows(peer)) continue;
    ++plan.availabilityQueries;
    const auto peerAv = ctx_->availability.query(self_, peer);
    if (!peerAv) continue;
    MaintenancePlan::PeerEval ev;
    ev.peer = peer;
    ev.known = true;
    ev.av = *peerAv;
    ev.kind = owner.classify(ev.av);
    ev.member = owner.evaluate(plan.hashScratch[i], ev.av);
    if (ev.member) plan.evals.push_back(ev);
  }
}

void AvmemNode::commitDiscovery(const MaintenancePlan& plan) {
  ++stats_.discoveryRounds;
  stats_.availabilityQueries += plan.availabilityQueries;
  if (plan.selfAv) selfAv_ = *plan.selfAv;
  for (const auto& ev : plan.evals) {
    SliverList& list = ev.kind == SliverKind::kHorizontal ? hs_ : vs_;
    if (list.upsert(ev.peer, ev.av, ctx_->sim.now())) {
      ++stats_.neighborsDiscovered;
    }
  }
}

void AvmemNode::planAdopt(std::span<const NodeIndex> view,
                          MaintenancePlan& plan) const {
  planSelfAvailability(plan);
  for (const NodeIndex peer : view) {
    if (peer == self_) continue;
    ++plan.availabilityQueries;
    const auto av = ctx_->availability.query(self_, peer);
    if (!av) continue;
    plan.evals.push_back(MaintenancePlan::PeerEval{
        peer, true, true, SliverKind::kVertical, *av});
  }
}

void AvmemNode::commitAdopt(const MaintenancePlan& plan) {
  ++stats_.discoveryRounds;
  stats_.availabilityQueries += plan.availabilityQueries;
  if (plan.selfAv) selfAv_ = *plan.selfAv;
  hs_.clear();
  vs_.clear();
  vs_.reserve(plan.evals.size());
  for (const auto& ev : plan.evals) {
    vs_.upsert(ev.peer, ev.av, ctx_->sim.now());
  }
}

void AvmemNode::planRefresh(MaintenancePlan& plan) const {
  const auto owner = ctx_->predicate.at(planSelfAvailability(plan));
  if (ctx_->batchHashReady()) {
    planRefreshSliverBatch(hs_.peers(), owner, plan);
    plan.hsEvalCount = plan.evals.size();
    planRefreshSliverBatch(vs_.peers(), owner, plan);
    return;
  }
  for (const NodeIndex peer : hs_.peers()) {
    plan.evals.push_back(planEvaluatePeer(peer, owner, plan));
  }
  plan.hsEvalCount = plan.evals.size();
  for (const NodeIndex peer : vs_.peers()) {
    plan.evals.push_back(planEvaluatePeer(peer, owner, plan));
  }
}

void AvmemNode::planRefreshSliverBatch(std::span<const NodeIndex> peers,
                                       const AvmemPredicate::Row& owner,
                                       MaintenancePlan& plan) const {
  const std::size_t n = peers.size();
  if (n == 0) return;
  plan.tailScratch.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    plan.tailScratch[i] = ctx_->idTails[peers[i]];
  }
  plan.hashScratch.resize(n);
  const hashing::Fast64PairBatch batch(ctx_->pairHash.seed(),
                                       ctx_->idTails[self_]);
  batch.hashMany(plan.tailScratch, plan.hashScratch);

  // Service queries stay sequential (the query order is part of the
  // deterministic contract); their answers land in contiguous arrays so
  // the classify and threshold passes below are straight-line loops.
  plan.avScratch.resize(n);
  plan.knownScratch.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ++plan.availabilityQueries;
    const auto av = ctx_->availability.query(self_, peers[i]);
    plan.knownScratch[i] = av.has_value() ? 1 : 0;
    plan.avScratch[i] = av.value_or(0.0);
  }
  plan.kindScratch.resize(n);
  owner.classifyMany(plan.avScratch, plan.kindScratch);
  plan.memberScratch.resize(n);
  owner.evaluateMany(plan.hashScratch, plan.avScratch, /*cushion=*/0.0,
                     plan.memberScratch);

  const std::size_t base = plan.evals.size();
  plan.evals.resize(base + n);
  for (std::size_t i = 0; i < n; ++i) {
    MaintenancePlan::PeerEval& ev = plan.evals[base + i];
    ev.peer = peers[i];
    if (plan.knownScratch[i] == 0) continue;  // default eval = unknown
    ev.known = true;
    ev.av = plan.avScratch[i];
    ev.kind = plan.kindScratch[i];
    ev.member = plan.memberScratch[i] != 0;
  }
}

void AvmemNode::refreshSliverFromPlan(
    const MaintenancePlan& plan, std::size_t evalOffset, SliverList& own,
    SliverKind ownKind, std::vector<std::pair<NodeIndex, double>>& moved) {
  // Single in-place pass over the flat arrays; removeAt swaps the back
  // entry into position i, so i only advances when the entry survives.
  // Entry i's eval is addressed by index — planRefresh emitted evals in
  // list order, and `idx` mirrors every swap-removal the list makes, so
  // the correspondence holds without searching (the plan snapshot and
  // this commit run inside one slot firing; nothing mutates the lists
  // in between).
  std::vector<std::size_t> idx(own.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = evalOffset + i;
  for (std::size_t i = 0; i < own.size();) {
    const MaintenancePlan::PeerEval& ev = plan.evals[idx[i]];
    assert(ev.peer == own.peerAt(i));
    const auto removeHere = [&] {
      own.removeAt(i);
      idx[i] = idx.back();
      idx.pop_back();
    };
    if (!ev.known || !ev.member) {
      // Predicate no longer holds (availability drift) or the service
      // lost track of the peer: evict, per the Refresh sub-protocol.
      removeHere();
      ++stats_.neighborsEvicted;
      continue;
    }
    if (ev.kind != ownKind) {
      moved.emplace_back(ev.peer, ev.av);
      removeHere();
      continue;
    }
    own.refreshAt(i, ev.av, ctx_->sim.now());
    ++i;
  }
}

void AvmemNode::commitRefresh(const MaintenancePlan& plan) {
  ++stats_.refreshRounds;
  stats_.availabilityQueries += plan.availabilityQueries;
  if (plan.selfAv) selfAv_ = *plan.selfAv;

  // Entries whose classification moved are collected during the passes and
  // re-filed afterwards, so each neighbor is evaluated exactly once per
  // round (an entry moved HS -> VS must not be re-scanned by the VS pass).
  std::vector<std::pair<NodeIndex, double>> toVs;
  std::vector<std::pair<NodeIndex, double>> toHs;
  refreshSliverFromPlan(plan, 0, hs_, SliverKind::kHorizontal, toVs);
  refreshSliverFromPlan(plan, plan.hsEvalCount, vs_, SliverKind::kVertical,
                        toHs);
  for (const auto& [peer, av] : toVs) vs_.upsert(peer, av, ctx_->sim.now());
  for (const auto& [peer, av] : toHs) hs_.upsert(peer, av, ctx_->sim.now());
}

bool AvmemNode::verifyIncoming(NodeIndex sender) {
  ++stats_.messagesVerified;
  // The receiver judges the *sender's* claim M(sender, self) with its own
  // information: the monitoring service's availability for the sender and
  // for itself. Consistency of H means the hash needs no trust. The
  // self-estimate is refreshed first — a node always has current access
  // to its own monitoring answer, and a stale value from before an
  // offline period would corrupt the judgment. Two queries per message
  // (self + sender), tracked separately so the overhead analysis can
  // attribute verification's monitoring load.
  stats_.verificationQueries += 2;
  updateSelfAvailability();
  ++stats_.availabilityQueries;
  const auto senderAv = ctx_->availability.query(self_, sender);
  if (!senderAv) {
    ++stats_.messagesRejected;
    return false;
  }
  // One pair per call: the scalar form evaluates only the sliver half
  // that applies (a row would pay the horizontal term for every sender).
  const double h = ctx_->hashOf(sender, self_);
  const bool ok = ctx_->predicate.evaluate(h, *senderAv, selfAv_,
                                           ctx_->config.cushion);
  if (!ok) ++stats_.messagesRejected;
  return ok;
}

}  // namespace avmem::core
