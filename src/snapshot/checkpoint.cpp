// The checkpoint orchestrator: walks every state owner's saveState /
// restoreState pair through the CheckpointAccess friend seam and frames
// the result with snapshot_io. See checkpoint.hpp for the contract.
#include "snapshot/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <functional>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "fault/fault_injector.hpp"
#include "trace/markov_churn.hpp"

namespace avmem::snapshot {

namespace {

using core::AvmemSimulation;
using core::SimulationConfig;

// Section tags. A reader skips tags it does not know; adding a section is
// forward-compatible, changing an existing section's layout bumps
// kFormatVersion.
constexpr std::uint32_t kSecSim = fourcc('S', 'I', 'M', 'U');
constexpr std::uint32_t kSecNodes = fourcc('N', 'O', 'D', 'S');
constexpr std::uint32_t kSecEngine = fourcc('E', 'N', 'G', 'S');
constexpr std::uint32_t kSecWheels = fourcc('W', 'H', 'L', 'S');
constexpr std::uint32_t kSecShuffle = fourcc('S', 'H', 'F', 'V');
constexpr std::uint32_t kSecChannel = fourcc('C', 'H', 'A', 'N');
constexpr std::uint32_t kSecFeed = fourcc('F', 'E', 'E', 'D');
constexpr std::uint32_t kSecNetwork = fourcc('N', 'E', 'T', 'W');
constexpr std::uint32_t kSecRng = fourcc('S', 'R', 'N', 'G');
constexpr std::uint32_t kSecMarkov = fourcc('M', 'R', 'K', 'V');
constexpr std::uint32_t kSecFault = fourcc('F', 'A', 'L', 'T');
constexpr std::uint32_t kSecAvmon = fourcc('A', 'V', 'M', 'N');

// SimTime arrays are serialized as raw memory; keep that honest.
static_assert(std::is_trivially_copyable_v<sim::SimTime> &&
                  sizeof(sim::SimTime) == sizeof(std::int64_t),
              "SimTime layout changed: bump kFormatVersion and revisit");

// --- config fingerprint -----------------------------------------------------

/// SplitMix64-chained field mixer; the field ORDER below is part of the
/// format (reordering fields silently invalidates every old checkpoint, so
/// treat any change here like a version bump).
struct Mixer {
  std::uint64_t state = 0x243F6A8885A308D3ull;  // pi fractional bits

  void add(std::uint64_t v) noexcept {
    state ^= v;
    state = sim::splitMix64(state) ^ (v * 0x9E3779B97F4A7C15ull);
  }
  void add(double v) noexcept { add(std::bit_cast<std::uint64_t>(v)); }
  void add(sim::SimDuration d) noexcept {
    add(static_cast<std::uint64_t>(d.toMicros()));
  }

  [[nodiscard]] std::uint64_t result() noexcept {
    std::uint64_t s = state;
    return sim::splitMix64(s);
  }
};

// --- shared layouts ---------------------------------------------------------

void writeRngState(SectionWriter& sec,
                   const std::array<std::uint64_t, 4>& s) {
  for (const std::uint64_t w : s) sec.u64(w);
}

std::array<std::uint64_t, 4> readRngState(Cursor& c) {
  std::array<std::uint64_t, 4> s{};
  for (std::uint64_t& w : s) w = c.u64();
  return s;
}

void writeSliver(SectionWriter& sec, const core::SliverList& sl) {
  sec.raw<net::NodeIndex>(sl.peers());
  sec.raw<double>(sl.cachedAvs());
  sec.raw<sim::SimTime>(sl.addedTimes());
  sec.raw<sim::SimTime>(sl.refreshedTimes());
}

core::SliverList readSliver(Cursor& c) {
  auto peers = c.raw<net::NodeIndex>();
  auto avs = c.raw<double>();
  auto added = c.raw<sim::SimTime>();
  auto refreshed = c.raw<sim::SimTime>();
  if (avs.size() != peers.size() || added.size() != peers.size() ||
      refreshed.size() != peers.size()) {
    throw CheckpointFormatError("checkpoint sliver: ragged arrays");
  }
  core::SliverList sl;
  sl.restore(std::move(peers), std::move(avs), std::move(added),
             std::move(refreshed));
  return sl;
}

void writeNodeStats(SectionWriter& sec, const core::NodeStats& st) {
  sec.u64(st.discoveryRounds);
  sec.u64(st.refreshRounds);
  sec.u64(st.neighborsDiscovered);
  sec.u64(st.neighborsEvicted);
  sec.u64(st.availabilityQueries);
  sec.u64(st.verificationQueries);
  sec.u64(st.messagesVerified);
  sec.u64(st.messagesRejected);
}

core::NodeStats readNodeStats(Cursor& c) {
  core::NodeStats st;
  st.discoveryRounds = c.u64();
  st.refreshRounds = c.u64();
  st.neighborsDiscovered = c.u64();
  st.neighborsEvicted = c.u64();
  st.availabilityQueries = c.u64();
  st.verificationQueries = c.u64();
  st.messagesVerified = c.u64();
  st.messagesRejected = c.u64();
  return st;
}

/// ShuffleMsg goes field-by-field: the struct has padding, and padding
/// bytes are indeterminate — serializing them would break the round-trip
/// byte-identity property (and leak uninitialized memory into the file).
void writeShuffleMsg(SectionWriter& sec, const net::ShuffleMsg& m) {
  sec.u8(static_cast<std::uint8_t>(m.kind));
  sec.u32(m.src);
  sec.u32(m.dst);
  sec.u32(m.payloadOffset);
  sec.u32(m.payloadCount);
  sec.u32(m.echoOffset);
  sec.u32(m.echoCount);
  sec.u64(m.seq);
  sec.u64(m.order);
  sec.i64(m.dueUs);
  sec.i64(m.rawDueUs);
}

net::ShuffleMsg readShuffleMsg(Cursor& c) {
  net::ShuffleMsg m{};
  const std::uint8_t kind = c.u8();
  if (kind > static_cast<std::uint8_t>(net::ShuffleMsg::Kind::kTimeout)) {
    throw CheckpointFormatError("checkpoint channel: unknown message kind");
  }
  m.kind = static_cast<net::ShuffleMsg::Kind>(kind);
  m.src = c.u32();
  m.dst = c.u32();
  m.payloadOffset = c.u32();
  m.payloadCount = c.u32();
  m.echoOffset = c.u32();
  m.echoCount = c.u32();
  m.seq = c.u64();
  m.order = c.u64();
  m.dueUs = c.i64();
  m.rawDueUs = c.i64();
  return m;
}

void writeBuckets(SectionWriter& sec,
                  const std::vector<std::vector<net::NodeIndex>>& buckets) {
  sec.u64(buckets.size());
  for (const auto& b : buckets) sec.raw<net::NodeIndex>(b);
}

std::vector<std::vector<net::NodeIndex>> readBuckets(Cursor& c,
                                                     std::size_t expect) {
  const std::uint64_t count = c.u64();
  if (count != expect) {
    throw CheckpointFormatError("checkpoint feed: bucket count mismatch");
  }
  std::vector<std::vector<net::NodeIndex>> buckets(
      static_cast<std::size_t>(count));
  for (auto& b : buckets) b = c.raw<net::NodeIndex>();
  return buckets;
}

/// One saved armed wheel slot. `seq` is a queue tie-break key: raw while
/// collecting, then normalized to a dense rank (see rankSavedEvents)
/// before it is written.
struct SlotRecord {
  std::uint32_t slot = 0;
  std::int64_t fireAtUs = 0;
  std::uint64_t seq = 0;
};

std::vector<SlotRecord> collectWheel(const sim::Simulator& simlr,
                                     const sim::ShardedScheduler& wheel,
                                     const char* name) {
  std::vector<SlotRecord> recs;
  recs.reserve(wheel.activeShardCount());
  for (std::size_t s = 0; s < wheel.shardCount(); ++s) {
    const sim::PeriodicTask* task = wheel.slotTask(s);
    if (task == nullptr) continue;
    std::uint64_t seq = 0;
    if (!simlr.eventSeqOf(task->pendingHandle(), seq)) {
      throw CheckpointUnsupportedError(
          std::string("checkpoint: ") + name +
          " wheel slot timer is not live (mid-firing save?)");
    }
    recs.push_back({static_cast<std::uint32_t>(s),
                    task->nextFireAt().toMicros(), seq});
  }
  return recs;
}

void writeWheel(SectionWriter& sec, const std::vector<SlotRecord>& recs) {
  sec.u64(recs.size());
  for (const SlotRecord& r : recs) {
    sec.u32(r.slot);
    sec.i64(r.fireAtUs);
    sec.u64(r.seq);
  }
}

/// Replace every saved event's raw queue seq with its dense rank in
/// (fireAt, rawSeq) order. The raw counters are run-history artifacts
/// (they keep growing over a run); ranks carry exactly the information
/// restore needs — the relative order of same-instant events — and make
/// serialization canonical: a restored world re-saves byte-identically,
/// because its fresh queue hands out seqs 0..k-1 in precisely this order
/// (the roundtrip property test pins this down).
void rankSavedEvents(std::vector<std::uint64_t*> seqs,
                     const std::vector<std::int64_t>& ats) {
  std::vector<std::size_t> idx(seqs.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return ats[a] != ats[b] ? ats[a] < ats[b] : *seqs[a] < *seqs[b];
  });
  std::vector<std::uint64_t> ranks(seqs.size());
  for (std::size_t r = 0; r < idx.size(); ++r) ranks[idx[r]] = r;
  for (std::size_t i = 0; i < seqs.size(); ++i) *seqs[i] = ranks[i];
}

std::vector<SlotRecord> readWheel(Cursor& c) {
  const std::uint64_t count = c.u64();
  if (count > c.remaining() / (sizeof(std::uint32_t) +
                               sizeof(std::int64_t) +
                               sizeof(std::uint64_t))) {
    throw CheckpointFormatError(
        "checkpoint wheel: slot count exceeds payload");
  }
  std::vector<SlotRecord> recs(static_cast<std::size_t>(count));
  for (SlotRecord& r : recs) {
    r.slot = c.u32();
    r.fireAtUs = c.i64();
    r.seq = c.u64();
  }
  return recs;
}

/// Save-time gate: the format captures maintenance-quiescent worlds only.
/// Every live event must be one of the known re-armable owners; anything
/// else (an anycast timeout, a multicast horizon, a test's ad-hoc timer)
/// cannot be reconstructed from state and must fail loudly.
void verifyEventAccounting(const sim::Simulator& simulator,
                           const core::MembershipEngine& engine,
                           const avmon::ShuffleService& shuffle,
                           bool hasFeed, std::size_t attackTimers,
                           bool avmonTask) {
  std::size_t accounted = engine.discoveryScheduler().activeShardCount() +
                          engine.refreshScheduler().activeShardCount() +
                          shuffle.scheduler().activeShardCount();
  if (shuffle.channel().scheduledWakeMicros() !=
      net::ShuffleChannel::kNoWakeSaved) {
    ++accounted;
  }
  if (hasFeed) ++accounted;  // the periodic seal task
  accounted += attackTimers;  // running attacker-campaign timers (FALT)
  if (avmonTask) ++accounted;  // the AVMON epoch-fold timer (AVMN)
  const std::size_t live = simulator.liveEventCount();
  if (live != accounted) {
    throw CheckpointUnsupportedError(
        "checkpoint: " + std::to_string(live) + " live events but only " +
        std::to_string(accounted) +
        " accounted maintenance timers — an unfinished management "
        "operation (anycast/multicast) cannot be checkpointed");
  }
}

/// Tie-break seq of a pending event, required live.
std::uint64_t liveSeqOf(const sim::Simulator& simulator,
                        const sim::EventHandle& h, const char* what) {
  std::uint64_t seq = 0;
  if (!simulator.eventSeqOf(h, seq)) {
    throw CheckpointUnsupportedError(
        std::string("checkpoint: ") + what + " event is not live");
  }
  return seq;
}

/// One deferred re-arm, executed in ascending (fireAt, savedSeq) order so
/// the fresh event queue reproduces every same-instant tie outcome.
struct ArmRequest {
  std::int64_t atUs = 0;
  std::uint64_t savedSeq = 0;
  std::function<void()> arm;
};

/// The simulation's availability model may be wrapped in a fault-plan
/// outage overlay; backend-specific state (the Markov cursor cache)
/// lives on the inner model either way.
trace::AvailabilityModel* unwrapOverlay(trace::AvailabilityModel* m) {
  if (auto* ov = dynamic_cast<fault::OutageOverlayModel*>(m)) {
    return &ov->inner();
  }
  return m;
}

/// One saved attacker-campaign timer (FALT section).
struct AttackRecord {
  std::uint8_t running = 0;
  std::int64_t fireAtUs = 0;
  std::uint64_t seq = 0;       ///< tie-break rank (see rankSavedEvents)
  std::uint64_t sweepsDone = 0;
};

}  // namespace

std::uint64_t configFingerprint(const SimulationConfig& config) {
  Mixer m;
  // Trace generator / model parameters.
  const trace::OvernetTraceConfig& t = config.trace;
  m.add(static_cast<std::uint64_t>(t.hosts));
  m.add(static_cast<std::uint64_t>(t.epochs));
  m.add(t.epochDuration);
  m.add(t.seed);
  m.add(t.lowWeight);
  m.add(t.lowMin);
  m.add(t.lowMax);
  m.add(t.midWeight);
  m.add(t.midMin);
  m.add(t.midMax);
  m.add(t.highWeight);
  m.add(t.highMin);
  m.add(t.highMax);
  m.add(t.serverWeight);
  m.add(t.serverMin);
  m.add(t.serverMax);
  m.add(t.meanSessionEpochs);
  m.add(t.diurnalAmplitude);
  // Protocol.
  const core::ProtocolConfig& p = config.protocol;
  m.add(p.epsilon);
  m.add(p.c1);
  m.add(p.c2);
  m.add(p.discoveryPeriod);
  m.add(p.refreshPeriod);
  m.add(p.cushion);
  m.add(static_cast<std::uint64_t>(p.hashAlgorithm));
  m.add(p.hashSeed);
  // Shuffle substrate.
  const avmon::ShuffleConfig& sh = config.shuffle;
  m.add(static_cast<std::uint64_t>(sh.viewSize));
  m.add(static_cast<std::uint64_t>(sh.gossipLength));
  m.add(sh.period);
  m.add(static_cast<std::uint64_t>(sh.shards));
  m.add(sh.ackTimeout);
  m.add(sh.deliveryQuantum);
  // Backend selection and parameters.
  m.add(static_cast<std::uint64_t>(config.backend));
  m.add(config.noisyMaxError);
  m.add(config.noisyStaleness);
  m.add(config.agedAlpha);
  m.add(config.centralSnapshotPeriod);
  m.add(config.avmon.expectedMonitorsPerTarget);
  m.add(static_cast<std::uint64_t>(config.avmon.hashAlgorithm));
  m.add(config.avmon.hashSeed);
  m.add(static_cast<std::uint64_t>(config.traceBackend));
  m.add(static_cast<std::uint64_t>(config.predicate));
  m.add(config.randomOverlayP);
  // Candidate feed.
  const core::CandidateFeedConfig& f = config.candidateFeed;
  m.add(static_cast<std::uint64_t>(f.enabled ? 1 : 0));
  m.add(static_cast<std::uint64_t>(f.buckets));
  m.add(static_cast<std::uint64_t>(f.horizontalScanBudget));
  m.add(static_cast<std::uint64_t>(f.verticalScanBudget));
  m.add(static_cast<std::uint64_t>(f.maxCandidates));
  m.add(f.thresholdSlack);
  m.add(f.epochPeriod);
  // Remaining result-determining knobs. maintenanceThreads and the
  // checkpoint paths are deliberately absent: a checkpoint restores at any
  // thread count.
  m.add(static_cast<std::uint64_t>(config.useCoarseViewOverlay ? 1 : 0));
  m.add(static_cast<std::uint64_t>(config.pdfBins));
  m.add(config.seed);
  m.add(static_cast<std::uint64_t>(config.maintenanceShards));
  // The fault campaign is world state — a mid-campaign checkpoint only
  // restores into the same campaign. faultPlanPath is I/O plumbing and
  // stays excluded (the *parsed contents* are what matter); an empty
  // plan fingerprints to 0, keeping faultless checkpoints stable.
  m.add(config.faultPlan.fingerprint());
  return m.result();
}

// --- save -------------------------------------------------------------------

void CheckpointAccess::save(const AvmemSimulation& sim, std::ostream& out) {
  if (!sim.started_) {
    throw CheckpointUnsupportedError(
        "checkpoint: system not started (nothing warm to save)");
  }
  if (sim.config_.backend == core::AvailabilityBackend::kAged ||
      sim.config_.backend == core::AvailabilityBackend::kCentral) {
    throw CheckpointUnsupportedError(
        "checkpoint: the aged and central availability backends hold "
        "per-query estimator state the format does not capture (the avmon "
        "overlay checkpoints via its AVMN section as of v3)");
  }
  std::size_t runningAttackTimers = 0;
  for (const auto& task : sim.attackTasks_) {
    if (task->running()) ++runningAttackTimers;
  }
  const bool avmonTaskRunning = sim.avmonSystem_ != nullptr &&
                                sim.avmonSystem_->epochTask().running();
  verifyEventAccounting(*sim.sim_, *sim.engine_, *sim.shuffle_,
                        sim.feed_ != nullptr, runningAttackTimers,
                        avmonTaskRunning);

  // Gather every saved event's (fire time, raw queue seq) up front, then
  // normalize the seqs to dense ranks so the file is canonical (see
  // rankSavedEvents).
  std::vector<SlotRecord> discRecs =
      collectWheel(*sim.sim_, sim.engine_->discoveryScheduler(), "discovery");
  std::vector<SlotRecord> refreshRecs =
      collectWheel(*sim.sim_, sim.engine_->refreshScheduler(), "refresh");
  std::vector<SlotRecord> shuffleRecs =
      collectWheel(*sim.sim_, sim.shuffle_->scheduler(), "shuffle");

  const avmon::ShuffleService::SavedState shf = sim.shuffle_->saveState();
  const bool haveWake =
      shf.channel.scheduledWakeUs != net::ShuffleChannel::kNoWakeSaved;
  std::uint64_t wakeSeq =
      haveWake ? liveSeqOf(*sim.sim_, sim.shuffle_->channel().wakeHandle(),
                           "channel wake")
               : 0;

  core::CandidateFeed::SavedState fs;
  std::uint64_t sealSeq = 0;
  if (sim.feed_ != nullptr) {
    fs = sim.feed_->saveState();
    sealSeq = liveSeqOf(*sim.sim_, sim.feed_->sealTask().pendingHandle(),
                        "feed seal");
  }

  avmon::AvmonSystem::SavedState avState;
  std::int64_t avFireAtUs = 0;
  std::uint64_t avSeq = 0;
  if (sim.avmonSystem_ != nullptr) {
    avState = sim.avmonSystem_->saveState();
    if (avmonTaskRunning) {
      const sim::PeriodicTask& task = sim.avmonSystem_->epochTask();
      avFireAtUs = task.nextFireAt().toMicros();
      avSeq = liveSeqOf(*sim.sim_, task.pendingHandle(), "avmon epoch fold");
    }
  }

  fault::FaultInjector::SavedState faultState;
  std::vector<AttackRecord> attackRecs;
  if (sim.fault_ != nullptr) {
    faultState = sim.fault_->saveState();
    attackRecs.resize(sim.attackTasks_.size());
    for (std::size_t i = 0; i < sim.attackTasks_.size(); ++i) {
      AttackRecord& rec = attackRecs[i];
      rec.sweepsDone = faultState.attackSweepsDone[i];
      const sim::PeriodicTask& task = *sim.attackTasks_[i];
      if (task.running()) {
        rec.running = 1;
        rec.fireAtUs = task.nextFireAt().toMicros();
        rec.seq = liveSeqOf(*sim.sim_, task.pendingHandle(),
                            "attack campaign");
      }
    }
  }

  {
    std::vector<std::uint64_t*> seqs;
    std::vector<std::int64_t> ats;
    for (auto* recs : {&discRecs, &refreshRecs, &shuffleRecs}) {
      for (SlotRecord& r : *recs) {
        seqs.push_back(&r.seq);
        ats.push_back(r.fireAtUs);
      }
    }
    if (haveWake) {
      seqs.push_back(&wakeSeq);
      ats.push_back(shf.channel.scheduledWakeUs);
    }
    if (sim.feed_ != nullptr) {
      seqs.push_back(&sealSeq);
      ats.push_back(fs.sealNextFireAtUs);
    }
    for (AttackRecord& rec : attackRecs) {
      if (rec.running == 0) continue;
      seqs.push_back(&rec.seq);
      ats.push_back(rec.fireAtUs);
    }
    if (avmonTaskRunning) {
      seqs.push_back(&avSeq);
      ats.push_back(avFireAtUs);
    }
    rankSavedEvents(std::move(seqs), ats);
  }

  CheckpointWriter writer(out);
  FileHeader header;
  header.version = kFormatVersion;
  header.fingerprint = configFingerprint(sim.config_);
  header.hosts = sim.nodes_.size();
  header.seed = sim.config_.seed;
  writer.writeHeader(header);

  SectionWriter sec;

  // SIMU: the clock and the executed-event count. Restoring `executed`
  // keeps the scale-sweep `events` column comparable across the restore
  // boundary (it is one of the thread-invariance keys).
  sec.clear();
  sec.i64(sim.sim_->now().toMicros());
  sec.u64(sim.sim_->executedEvents());
  writer.writeSection(kSecSim, sec);

  // NODS: per-node protocol state, SoA sliver arrays raw.
  sec.clear();
  sec.u64(sim.nodes_.size());
  for (const core::AvmemNode& node : sim.nodes_) {
    sec.f64(node.selfAvailability());
    writeNodeStats(sec, node.stats());
    writeSliver(sec, node.horizontalSliver());
    writeSliver(sec, node.verticalSliver());
  }
  writer.writeSection(kSecNodes, sec);

  // ENGS: engine counters.
  sec.clear();
  const core::MembershipEngineStats& es = sim.engine_->stats();
  sec.u64(es.discoveryRounds);
  sec.u64(es.refreshRounds);
  sec.u64(es.skippedOffline);
  sec.u64(es.feedCandidates);
  writer.writeSection(kSecEngine, sec);

  // WHLS: the three timing wheels' armed slots — fire times and tie-break
  // ranks only; slot *membership* is reproduced from RNG state on restore
  // and cross-checked against these records.
  sec.clear();
  writeWheel(sec, discRecs);
  writeWheel(sec, refreshRecs);
  writeWheel(sec, shuffleRecs);
  writer.writeSection(kSecWheels, sec);

  // SHFV: coarse views + rounds + stream seeds + the post-bootstrap RNG.
  sec.clear();
  sec.u64(shf.views.size());
  for (const auto& view : shf.views) sec.raw<net::NodeIndex>(view);
  sec.raw<std::uint32_t>(shf.rounds);
  sec.u64(shf.completedShuffles);
  sec.u64(shf.planSeed);
  sec.u64(shf.wireSeed);
  writeRngState(sec, shf.rngState);
  writer.writeSection(kSecShuffle, sec);

  // CHAN: every in-flight shuffle leg (heap array order preserved — pops
  // depend on the layout), the arena, ack bookkeeping, the wire RNG, and
  // the armed wake (instant + tie-break seq).
  sec.clear();
  const net::ShuffleChannel::SavedState& ch = shf.channel;
  sec.u64(ch.heap.size());
  for (const net::ShuffleMsg& msg : ch.heap) writeShuffleMsg(sec, msg);
  sec.raw<net::NodeIndex>(ch.arena);
  sec.u64(ch.liveEntries);
  sec.raw<std::uint64_t>(ch.awaitingAck);
  sec.u64(ch.nextSeq);
  sec.u64(ch.nextOrder);
  sec.i64(ch.scheduledWakeUs);
  sec.u64(wakeSeq);
  writeRngState(sec, ch.rngState);
  writer.writeSection(kSecChannel, sec);

  // FEED: both directory sides + the seal timer (iff the feed exists).
  if (sim.feed_ != nullptr) {
    sec.clear();
    writeBuckets(sec, fs.frozenBuckets);
    sec.u64(fs.frozenPopulation);
    writeBuckets(sec, fs.buildingBuckets);
    sec.u64(fs.buildingPopulation);
    sec.raw<std::uint32_t>(fs.publishedInEpoch);
    sec.u64(fs.sealedEpochs);
    sec.i64(fs.sealNextFireAtUs);
    sec.u64(sealSeq);
    writer.writeSection(kSecFeed, sec);
  }

  // NETW: wire counters + the latency RNG.
  sec.clear();
  const net::Network::SavedState ns = sim.network_->saveState();
  sec.u64(ns.stats.sent);
  sec.u64(ns.stats.delivered);
  sec.u64(ns.stats.rejected);
  sec.u64(ns.stats.droppedOffline);
  sec.u64(ns.stats.acksSent);
  sec.u64(ns.stats.ackTimeouts);
  sec.u64(ns.stats.bytesSent);
  sec.u64(ns.stats.duplicated);
  sec.u64(ns.stats.injectedDrops);
  writeRngState(sec, ns.rngState);
  writer.writeSection(kSecNetwork, sec);

  // FALT: the fault injector's counter streams, tallies, and attacker
  // campaign timers (iff a plan is active). The campaign itself is not
  // serialized — the config fingerprint already pins it.
  if (sim.fault_ != nullptr) {
    sec.clear();
    for (const std::uint64_t s : faultState.wireSeq) sec.u64(s);
    sec.u64(faultState.stats.injectedDrops);
    sec.u64(faultState.stats.duplicated);
    sec.u64(faultState.stats.delayed);
    sec.u64(faultState.stats.attackSweeps);
    sec.u64(faultState.stats.attackTargets);
    sec.u64(faultState.stats.attackAccepted);
    sec.u64(attackRecs.size());
    for (const AttackRecord& rec : attackRecs) {
      sec.u8(rec.running);
      sec.i64(rec.fireAtUs);
      sec.u64(rec.seq);
      sec.u64(rec.sweepsDone);
    }
    writer.writeSection(kSecFault, sec);
  }

  // AVMN: the avmon overlay — fold cursor, ping accounting, epoch-task
  // timer, and the materialized counter cells (monitor lists are a pure
  // hash, rebuilt and cross-checked on restore).
  if (sim.avmonSystem_ != nullptr) {
    sec.clear();
    sec.u64(avState.advancedEpochs);
    sec.u64(avState.pings.sent);
    sec.u64(avState.pings.delivered);
    sec.u64(avState.pings.lostToFaults);
    sec.u64(avState.pings.bytes);
    sec.u8(avmonTaskRunning ? 1 : 0);
    sec.i64(avFireAtUs);
    sec.u64(avSeq);
    sec.u64(avState.cells.size());
    for (const avmon::AvmonSystem::SavedState::Cell& cell : avState.cells) {
      sec.u32(cell.target);
      sec.raw<std::uint32_t>(cell.samples);
      sec.raw<std::uint32_t>(cell.up);
    }
    writer.writeSection(kSecAvmon, sec);
  }

  // SRNG: the facade RNG (pickInitiator draws) — restoring it keeps
  // post-restore anycast batches identical to a straight-through run.
  sec.clear();
  writeRngState(sec, sim.rng_.saveState());
  writer.writeSection(kSecRng, sec);

  // MRKV: the Markov trace's per-host cursors. Pure caches — omitting
  // them changes no answer — but restoring them makes the first
  // post-restore epoch O(1) per host instead of a block replay.
  if (const auto* markov = dynamic_cast<const trace::MarkovChurnModel*>(
          unwrapOverlay(sim.trace_.get()))) {
    sec.clear();
    sec.raw<std::uint64_t>(markov->saveCursors());
    writer.writeSection(kSecMarkov, sec);
  }

  writer.finish();
}

// --- restore ----------------------------------------------------------------

void CheckpointAccess::restore(AvmemSimulation& sim, std::istream& in) {
  if (sim.started_ || sim.sim_->pendingEvents() != 0) {
    throw CheckpointUnsupportedError(
        "checkpoint: restore requires a freshly-constructed system");
  }

  CheckpointReader reader(in);
  const FileHeader& header = reader.header();
  if (header.fingerprint != configFingerprint(sim.config_)) {
    throw CheckpointConfigError(
        "checkpoint: config fingerprint mismatch — the checkpoint was "
        "taken under a different configuration (thread count and dispatch "
        "mode aside, every knob must match)");
  }
  const std::size_t n = sim.nodes_.size();
  if (header.hosts != n) {
    throw CheckpointConfigError("checkpoint: population mismatch");
  }

  // --- parse every section into staging state (skipping unknown tags) ---

  struct NodeRecord {
    double selfAv = 0.0;
    core::NodeStats stats;
    core::SliverList hs;
    core::SliverList vs;
  };

  bool haveSim = false, haveNodes = false, haveEngine = false,
       haveWheels = false, haveShuffle = false, haveChannel = false,
       haveFeed = false, haveNetwork = false, haveRng = false;
  std::int64_t nowUs = 0;
  std::uint64_t executed = 0;
  std::vector<NodeRecord> nodeRecords;
  core::MembershipEngineStats engineStats;
  std::vector<SlotRecord> discSlots, refreshSlots, shuffleSlots;
  avmon::ShuffleService::SavedState shf;
  std::uint64_t wakeSeq = 0;
  core::CandidateFeed::SavedState feedState;
  std::uint64_t sealSeq = 0;
  net::Network::SavedState netState;
  std::array<std::uint64_t, 4> facadeRng{};
  std::vector<std::uint64_t> markovCursors;
  bool haveMarkov = false;
  fault::FaultInjector::SavedState faultState;
  std::vector<AttackRecord> attackRecs;
  bool haveFault = false;
  avmon::AvmonSystem::SavedState avState;
  std::uint8_t avRunning = 0;
  std::int64_t avFireAtUs = 0;
  std::uint64_t avSeq = 0;
  bool haveAvmon = false;

  std::uint32_t id = 0;
  std::vector<std::uint8_t> payload;
  while (reader.nextSection(id, payload)) {
    Cursor c(payload.data(), payload.size());
    switch (id) {
      case kSecSim: {
        nowUs = c.i64();
        executed = c.u64();
        haveSim = true;
        break;
      }
      case kSecNodes: {
        const std::uint64_t count = c.u64();
        if (count != n) {
          throw CheckpointFormatError(
              "checkpoint nodes: population mismatch");
        }
        nodeRecords.resize(n);
        for (NodeRecord& r : nodeRecords) {
          r.selfAv = c.f64();
          r.stats = readNodeStats(c);
          r.hs = readSliver(c);
          r.vs = readSliver(c);
        }
        haveNodes = true;
        break;
      }
      case kSecEngine: {
        engineStats.discoveryRounds = c.u64();
        engineStats.refreshRounds = c.u64();
        engineStats.skippedOffline = c.u64();
        engineStats.feedCandidates = c.u64();
        haveEngine = true;
        break;
      }
      case kSecWheels: {
        discSlots = readWheel(c);
        refreshSlots = readWheel(c);
        shuffleSlots = readWheel(c);
        haveWheels = true;
        break;
      }
      case kSecShuffle: {
        const std::uint64_t count = c.u64();
        if (count != n) {
          throw CheckpointFormatError(
              "checkpoint views: population mismatch");
        }
        shf.views.resize(n);
        for (auto& view : shf.views) view = c.raw<net::NodeIndex>();
        shf.rounds = c.raw<std::uint32_t>();
        shf.completedShuffles = c.u64();
        shf.planSeed = c.u64();
        shf.wireSeed = c.u64();
        shf.rngState = readRngState(c);
        haveShuffle = true;
        break;
      }
      case kSecChannel: {
        const std::uint64_t count = c.u64();
        constexpr std::size_t kMsgBytes = 1 + 6 * 4 + 2 * 8 + 2 * 8;
        if (count > c.remaining() / kMsgBytes) {
          throw CheckpointFormatError(
              "checkpoint channel: heap length exceeds payload");
        }
        shf.channel.heap.resize(static_cast<std::size_t>(count));
        for (net::ShuffleMsg& msg : shf.channel.heap) {
          msg = readShuffleMsg(c);
        }
        shf.channel.arena = c.raw<net::NodeIndex>();
        shf.channel.liveEntries = c.u64();
        shf.channel.awaitingAck = c.raw<std::uint64_t>();
        shf.channel.nextSeq = c.u64();
        shf.channel.nextOrder = c.u64();
        shf.channel.scheduledWakeUs = c.i64();
        wakeSeq = c.u64();
        shf.channel.rngState = readRngState(c);
        haveChannel = true;
        break;
      }
      case kSecFeed: {
        if (sim.feed_ == nullptr) {
          throw CheckpointFormatError(
              "checkpoint: feed section present but the feed is disabled");
        }
        const std::size_t buckets = sim.feed_->bucketCount();
        feedState.frozenBuckets = readBuckets(c, buckets);
        feedState.frozenPopulation = c.u64();
        feedState.buildingBuckets = readBuckets(c, buckets);
        feedState.buildingPopulation = c.u64();
        feedState.publishedInEpoch = c.raw<std::uint32_t>();
        if (feedState.publishedInEpoch.size() != n) {
          throw CheckpointFormatError(
              "checkpoint feed: population mismatch");
        }
        feedState.sealedEpochs = c.u64();
        feedState.sealNextFireAtUs = c.i64();
        sealSeq = c.u64();
        haveFeed = true;
        break;
      }
      case kSecNetwork: {
        netState.stats.sent = c.u64();
        netState.stats.delivered = c.u64();
        netState.stats.rejected = c.u64();
        netState.stats.droppedOffline = c.u64();
        netState.stats.acksSent = c.u64();
        netState.stats.ackTimeouts = c.u64();
        netState.stats.bytesSent = c.u64();
        netState.stats.duplicated = c.u64();
        netState.stats.injectedDrops = c.u64();
        netState.rngState = readRngState(c);
        haveNetwork = true;
        break;
      }
      case kSecFault: {
        for (std::uint64_t& s : faultState.wireSeq) s = c.u64();
        faultState.stats.injectedDrops = c.u64();
        faultState.stats.duplicated = c.u64();
        faultState.stats.delayed = c.u64();
        faultState.stats.attackSweeps = c.u64();
        faultState.stats.attackTargets = c.u64();
        faultState.stats.attackAccepted = c.u64();
        const std::uint64_t count = c.u64();
        constexpr std::size_t kRecBytes = 1 + 8 + 8 + 8;
        if (count > c.remaining() / kRecBytes) {
          throw CheckpointFormatError(
              "checkpoint fault: attack count exceeds payload");
        }
        attackRecs.resize(static_cast<std::size_t>(count));
        for (AttackRecord& rec : attackRecs) {
          rec.running = c.u8();
          rec.fireAtUs = c.i64();
          rec.seq = c.u64();
          rec.sweepsDone = c.u64();
          faultState.attackSweepsDone.push_back(rec.sweepsDone);
        }
        haveFault = true;
        break;
      }
      case kSecAvmon: {
        if (sim.avmonSystem_ == nullptr) {
          throw CheckpointFormatError(
              "checkpoint: AVMN section present but the avmon backend is "
              "not active");
        }
        avState.advancedEpochs = c.u64();
        // The fold cursor never passes the last epoch (AvmonSystem::start);
        // a larger one would make the next materialization's catch-up read
        // past the trace.
        if (avState.advancedEpochs >= sim.trace_->epochCount()) {
          throw CheckpointFormatError(
              "checkpoint avmon: fold cursor past the trace's last epoch");
        }
        avState.pings.sent = c.u64();
        avState.pings.delivered = c.u64();
        avState.pings.lostToFaults = c.u64();
        avState.pings.bytes = c.u64();
        avRunning = c.u8();
        avFireAtUs = c.i64();
        avSeq = c.u64();
        const std::uint64_t count = c.u64();
        if (count > n) {
          throw CheckpointFormatError(
              "checkpoint avmon: cell count exceeds population");
        }
        avState.cells.resize(static_cast<std::size_t>(count));
        for (std::size_t i = 0; i < avState.cells.size(); ++i) {
          auto& cell = avState.cells[i];
          cell.target = c.u32();
          // The writer emits distinct in-range targets in ascending order;
          // a duplicate would silently replace the earlier cell's counters.
          if (cell.target >= n ||
              (i > 0 && cell.target <= avState.cells[i - 1].target)) {
            throw CheckpointFormatError(
                "checkpoint avmon: cell targets out of range or not "
                "strictly ascending");
          }
          cell.samples = c.raw<std::uint32_t>();
          cell.up = c.raw<std::uint32_t>();
        }
        haveAvmon = true;
        break;
      }
      case kSecRng: {
        facadeRng = readRngState(c);
        haveRng = true;
        break;
      }
      case kSecMarkov: {
        markovCursors = c.raw<std::uint64_t>();
        haveMarkov = true;
        break;
      }
      default:
        break;  // unknown section: skip (forward compatibility)
    }
  }

  if (!haveSim || !haveNodes || !haveEngine || !haveWheels ||
      !haveShuffle || !haveChannel || !haveNetwork || !haveRng) {
    throw CheckpointFormatError(
        "checkpoint: missing a mandatory section");
  }
  if ((sim.feed_ != nullptr) != haveFeed) {
    throw CheckpointFormatError(
        "checkpoint: feed enabled but no feed section saved");
  }
  // The fingerprint already pins the campaign, so a mismatch here means
  // a corrupt or hand-edited file, not a config drift.
  if ((sim.fault_ != nullptr) != haveFault) {
    throw CheckpointFormatError(
        "checkpoint: fault plan active but no FALT section saved (or "
        "vice versa)");
  }
  if (haveFault && attackRecs.size() != sim.attackTasks_.size()) {
    throw CheckpointFormatError(
        "checkpoint fault: attack stage count mismatch");
  }
  if ((sim.avmonSystem_ != nullptr) != haveAvmon) {
    throw CheckpointFormatError(
        "checkpoint: avmon backend active but no AVMN section saved (or "
        "vice versa)");
  }

  // --- install state (no events scheduled yet) ---

  sim.started_ = true;
  sim.sim_->restoreClock(sim::SimTime::micros(nowUs), executed);

  for (std::size_t i = 0; i < n; ++i) {
    NodeRecord& r = nodeRecords[i];
    sim.nodes_[i].restoreState(r.selfAv, std::move(r.hs), std::move(r.vs),
                               r.stats);
  }

  sim.engine_->prepareResume();
  sim.engine_->restoreStats(engineStats);
  sim.shuffle_->restoreState(std::move(shf));
  const std::int64_t sealFireAtUs = feedState.sealNextFireAtUs;
  if (sim.feed_ != nullptr) sim.feed_->restoreState(std::move(feedState));
  sim.network_->restoreState(netState);
  sim.rng_ = sim::Rng::fromState(facadeRng);
  if (sim.fault_ != nullptr) sim.fault_->restoreState(faultState);
  if (sim.avmonSystem_ != nullptr) sim.avmonSystem_->restoreState(avState);
  if (auto* markov = dynamic_cast<trace::MarkovChurnModel*>(
          unwrapOverlay(sim.trace_.get()));
      markov != nullptr && haveMarkov) {
    markov->restoreCursors(markovCursors);
  }

  // --- re-arm every saved event in (fireAt, saved tie-break seq) order ---
  //
  // The fresh queue assigns seqs 0..k-1 in arming order, so sorting by the
  // saved keys reproduces every same-instant tie outcome; events scheduled
  // after the restore sort behind all of these, exactly as events
  // scheduled after time T sorted behind the then-pending set in the
  // straight-through run.

  std::vector<ArmRequest> arms;
  auto collectWheel = [&](sim::ShardedScheduler& wheel,
                          std::vector<SlotRecord>& recs, const char* name) {
    if (recs.size() != wheel.activeShardCount()) {
      throw CheckpointFormatError(
          std::string("checkpoint: ") + name +
          " wheel armed-slot count does not match the rebuilt wheel "
          "(slot assignment failed to reproduce)");
    }
    for (const SlotRecord& rec : recs) {
      if (rec.slot >= wheel.shardCount() ||
          wheel.slotTask(rec.slot) == nullptr) {
        throw CheckpointFormatError(
            std::string("checkpoint: ") + name +
            " wheel slot assignment mismatch");
      }
      arms.push_back({rec.fireAtUs, rec.seq,
                      [&wheel, slot = rec.slot, at = rec.fireAtUs] {
                        wheel.armSlot(slot, sim::SimTime::micros(at));
                      }});
    }
  };
  collectWheel(sim.engine_->discoveryWheel(), discSlots, "discovery");
  collectWheel(sim.engine_->refreshWheel(), refreshSlots, "refresh");
  collectWheel(sim.shuffle_->wheel(), shuffleSlots, "shuffle");

  net::ShuffleChannel& channel = sim.shuffle_->channel();
  if (channel.scheduledWakeMicros() != net::ShuffleChannel::kNoWakeSaved) {
    arms.push_back({channel.scheduledWakeMicros(), wakeSeq,
                    [&channel] { channel.armWake(); }});
  }
  if (sim.feed_ != nullptr) {
    const std::int64_t sealAt = sealFireAtUs;
    arms.push_back(
        {sealAt, sealSeq, [&sim, sealAt] {
           sim.feed_->armSeal(*sim.sim_,
                              sim.config_.protocol.discoveryPeriod,
                              sim::SimTime::micros(sealAt));
         }});
  }
  for (std::size_t i = 0; i < attackRecs.size(); ++i) {
    const AttackRecord& rec = attackRecs[i];
    if (rec.running == 0) continue;  // stage window already closed
    arms.push_back(
        {rec.fireAtUs, rec.seq, [&sim, i, at = rec.fireAtUs] {
           sim.attackTasks_[i]->start(
               *sim.sim_, sim::SimTime::micros(at),
               sim::SimDuration::micros(
                   sim.config_.faultPlan.attacks[i].periodUs),
               [simPtr = &sim, i] { simPtr->fireAttackStage(i); });
         }});
  }

  if (avRunning != 0) {
    arms.push_back({avFireAtUs, avSeq, [&sim, at = avFireAtUs] {
                      // start() recomputes the next boundary from the
                      // restored fold cursor; it must land exactly where
                      // the saved timer was armed.
                      sim.avmonSystem_->start();
                      const sim::PeriodicTask& task =
                          sim.avmonSystem_->epochTask();
                      if (!task.running() ||
                          task.nextFireAt().toMicros() != at) {
                        throw CheckpointFormatError(
                            "checkpoint avmon: epoch-task re-arm landed at "
                            "a different instant than the saved timer");
                      }
                    }});
  }

  std::sort(arms.begin(), arms.end(),
            [](const ArmRequest& a, const ArmRequest& b) {
              return a.atUs != b.atUs ? a.atUs < b.atUs
                                      : a.savedSeq < b.savedSeq;
            });
  for (const ArmRequest& req : arms) req.arm();
}

}  // namespace avmem::snapshot

// --- facade entry points ----------------------------------------------------

namespace avmem::core {

void AvmemSimulation::saveCheckpoint(std::ostream& out) const {
  snapshot::CheckpointAccess::save(*this, out);
}

void AvmemSimulation::saveCheckpoint(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw snapshot::CheckpointIoError(
        "cannot open checkpoint for writing: " + path);
  }
  saveCheckpoint(static_cast<std::ostream&>(out));
  out.close();
  if (!out) {
    throw snapshot::CheckpointIoError("checkpoint close failed: " + path);
  }
}

void AvmemSimulation::restoreCheckpoint(std::istream& in) {
  snapshot::CheckpointAccess::restore(*this, in);
}

void AvmemSimulation::restoreCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw snapshot::CheckpointIoError("cannot open checkpoint: " + path);
  }
  restoreCheckpoint(static_cast<std::istream&>(in));
}

}  // namespace avmem::core
