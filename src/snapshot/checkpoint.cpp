// The checkpoint orchestrator. Each section and each record in it has one
// persist function that lists its fields once; a Writer archive runs it to
// save and a Reader archive runs it to restore, so the two paths cannot
// drift apart. A single section table drives both. State reaches the
// sections through each owner's persistedState() tie and the
// CheckpointAccess friend seam, and snapshot_io frames the result. A
// restore parses every section into staged values, validates them, and
// only then installs them and re-arms the saved events. See checkpoint.hpp
// for the contract.
#include "snapshot/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "fault/fault_injector.hpp"
#include "trace/markov_churn.hpp"

namespace avmem::snapshot {

namespace {

using core::AvmemSimulation;
using core::SimulationConfig;

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

// --- archives ---------------------------------------------------------------
//
// Every record and section has ONE persist function, a template over the
// archive that visits its fields in on-disk order. Writer appends each field
// to a section payload; Reader parses it back out of a CRC-verified payload
// into staging state, enforcing the hostile-input bounds as it goes. Writer
// sees the state const (Io<Writer, T> is const T), so saving cannot mutate
// the world it saves.

template <class Ar, class T>
using Io = std::conditional_t<Ar::kLoading, T, const T>;

/// A field persisted as its in-memory bytes must have no padding (those
/// bytes are indeterminate) and must not be an enum (enumeration() checks
/// an enum's range on restore).
template <class T>
constexpr bool kPlainField =
    !std::is_enum_v<T> && (std::has_unique_object_representations_v<T> ||
                           std::is_floating_point_v<T>);

// The ways a restore bounds an element count before allocating for it.
/// The count must equal the staging container's size, set from the
/// target system beforehand (a population or bucket count).
struct SameSize {
  const char* what;
};
/// At most `most` elements.
struct AtMost {
  std::size_t most;
  const char* what;
};
/// Records of `recordBytes` each must fit in the rest of the payload.
struct Fits {
  std::size_t recordBytes;
  const char* what;
};

class Writer {
 public:
  static constexpr bool kLoading = false;
  explicit Writer(SectionWriter& sec) : sec_(sec) {}

  template <class... T>
  void operator()(const T&... fields) {
    static_assert((kPlainField<T> && ...));
    (sec_.pod(fields), ...);
  }
  /// An enum as its underlying integer; `last` bounds the reader.
  template <class E>
  void enumeration(const E& value, E /*last*/, const char* /*what*/) {
    sec_.pod(value);
  }
  /// Length-prefixed bulk array (the memcpy path).
  template <class T>
  void array(const std::vector<T>& values) {
    sec_.raw<T>(values);
  }
  /// u64 element count; the caller persists the elements.
  template <class V, class Bound>
  void count(const V& values, Bound /*bound*/) {
    sec_.pod<std::uint64_t>(values.size());
  }
  /// Restore-side validation; the writer trusts its own state.
  void check(bool /*ok*/, const char* /*what*/) {}

 private:
  SectionWriter& sec_;
};

class Reader {
 public:
  static constexpr bool kLoading = true;
  explicit Reader(Cursor& cursor) : c_(cursor) {}

  template <class... T>
  void operator()(T&... fields) {
    static_assert((kPlainField<T> && ...));
    ((fields = c_.pod<T>()), ...);
  }
  template <class E>
  void enumeration(E& value, E last, const char* what) {
    using U = std::underlying_type_t<E>;
    const U raw = c_.pod<U>();
    check(raw <= static_cast<U>(last), what);
    value = static_cast<E>(raw);
  }
  template <class T>
  void array(std::vector<T>& values) {
    values = c_.raw<T>();
  }
  template <class V>
  void count(V& values, SameSize bound) {
    check(c_.pod<std::uint64_t>() == values.size(), bound.what);
  }
  template <class V>
  void count(V& values, AtMost bound) {
    const auto n = c_.pod<std::uint64_t>();
    check(n <= bound.most, bound.what);
    values.resize(static_cast<std::size_t>(n));
  }
  template <class V>
  void count(V& values, Fits bound) {
    const auto n = c_.pod<std::uint64_t>();
    check(n <= c_.remaining() / bound.recordBytes, bound.what);
    values.resize(static_cast<std::size_t>(n));
  }
  void check(bool ok, const char* what) {
    if (!ok) throw CheckpointFormatError(what);
  }

 private:
  Cursor& c_;
};

// --- records ----------------------------------------------------------------

/// One saved armed wheel slot. `seq` is a queue tie-break key: raw while
/// collecting, then normalized to a dense rank (see rankSavedEvents)
/// before it is written.
struct SlotRecord {
  std::uint32_t slot = 0;
  std::int64_t fireAtUs = 0;
  std::uint64_t seq = 0;
};
constexpr std::size_t kSlotRecordBytes = 4 + 8 + 8;

/// One saved periodic timer outside the wheels (an attacker campaign
/// stage, the AVMON epoch fold): whether it runs, and if so when it next
/// fires and its tie-break rank.
struct TimerRecord {
  std::uint8_t running = 0;
  std::int64_t fireAtUs = 0;
  std::uint64_t seq = 0;
};

/// A CHAN heap entry, field by field.
constexpr std::size_t kShuffleMsgBytes = 1 + 6 * 4 + 2 * 8 + 2 * 8;

template <class Ar>
void persist(Ar& ar, Io<Ar, SlotRecord>& r) {
  ar(r.slot, r.fireAtUs, r.seq);
}

template <class Ar>
void persist(Ar& ar, Io<Ar, TimerRecord>& t) {
  ar(t.running, t.fireAtUs, t.seq);
}

/// A generator as its raw xoshiro256++ state: a restored one continues the
/// exact sequence and forks the same children.
template <class Ar>
void persist(Ar& ar, Io<Ar, sim::Rng>& rng) {
  std::array<std::uint64_t, 4> state = rng.saveState();
  ar(state);
  if constexpr (Ar::kLoading) rng = sim::Rng::fromState(state);
}

/// A size_t count as a u64, whatever the host's size_t width.
template <class Ar>
void persistSize(Ar& ar, Io<Ar, std::size_t>& n) {
  auto wide = static_cast<std::uint64_t>(n);
  ar(wide);
  if constexpr (Ar::kLoading) n = static_cast<std::size_t>(wide);
}

/// ShuffleMsg goes field by field: the struct has padding, and padding
/// bytes are indeterminate — serializing them would break the round-trip
/// byte-identity property (and leak uninitialized memory into the file).
template <class Ar>
void persist(Ar& ar, Io<Ar, net::ShuffleMsg>& m) {
  ar.enumeration(m.kind, net::ShuffleMsg::Kind::kTimeout,
                 "checkpoint channel: unknown message kind");
  ar(m.src, m.dst, m.payloadOffset, m.payloadCount, m.echoOffset,
     m.echoCount, m.seq, m.order, m.dueUs, m.rawDueUs);
}

/// The SoA sliver arrays, raw.
template <class Ar>
void persist(Ar& ar, Io<Ar, core::SliverList>& sl) {
  auto [peers, avs, added, refreshed] = sl.persistedArrays();
  ar.array(peers);
  ar.array(avs);
  ar.array(added);
  ar.array(refreshed);
  ar.check(avs.size() == peers.size() && added.size() == peers.size() &&
               refreshed.size() == peers.size(),
           "checkpoint sliver: ragged arrays");
}

template <class Ar>
void persist(Ar& ar, Io<Ar, core::AvmemNode>& node) {
  auto [selfAv, st, hs, vs] = node.persistedState();
  ar(selfAv, st.discoveryRounds, st.refreshRounds, st.neighborsDiscovered,
     st.neighborsEvicted, st.availabilityQueries, st.verificationQueries,
     st.messagesVerified, st.messagesRejected);
  persist(ar, hs);
  persist(ar, vs);
}

// --- owner state ------------------------------------------------------------
//
// An owner lists its persisted members once, as the std::tie its
// persistedState() returns. Each section function binds that tie with a
// structured binding, so a member added to the tie but not to the section
// fails to compile. Saving binds the live owner's const tie and copies
// nothing; restoring binds Staged values, which the install move-assigns
// into the owner's mutable tie once every check has passed.

template <class Tie>
struct ValuesOf;
template <class... T>
struct ValuesOf<std::tuple<T&...>> {
  using type = std::tuple<std::remove_const_t<T>...>;
};

/// What a restore parses an owner's state into: the tie's value types.
template <class Owner>
using Staged = typename ValuesOf<
    decltype(std::declval<const Owner&>().persistedState())>::type;

/// An owner's state in a World: the live owner on save, staged values on
/// restore.
template <class Ar, class Owner>
using Part = std::conditional_t<Ar::kLoading, Staged<Owner>, const Owner*>;

/// The persisted fields of a Part, as a tuple of references.
template <class Owner>
auto fields(const Owner* live) {
  return live->persistedState();
}
template <class... T>
auto fields(std::tuple<T...>& staged) {
  return std::apply([](auto&... v) { return std::tie(v...); }, staged);
}

// --- sections ---------------------------------------------------------------

/// What the target system has, read from it on both paths: it decides
/// which sections exist and bounds what a restore accepts.
struct Context {
  std::size_t hosts = 0;
  std::size_t traceEpochs = 0;
  bool hasFeed = false;
  bool hasFault = false;
  bool hasAvmon = false;
  bool hasMarkov = false;
};

/// Everything a checkpoint carries. save() points it at the live world;
/// restore() parses into it, validates, and only then installs it.
template <class Ar>
struct World {
  Context ctx;
  // SIMU: the clock and the executed-event count.
  std::int64_t nowUs = 0;
  std::uint64_t executed = 0;
  // NODS: the live nodes on save, staged ones on restore.
  std::span<Io<Ar, core::AvmemNode>> nodes;
  // ENGS
  core::MembershipEngineStats engine;
  // WHLS: the discovery, refresh and shuffle wheels' armed slots.
  std::array<std::vector<SlotRecord>, 3> wheels;
  // SHFV
  Part<Ar, avmon::ShuffleService> shuffle{};
  // CHAN, plus the armed wake's tie-break rank.
  Part<Ar, net::ShuffleChannel> channel{};
  std::uint64_t wakeSeq = 0;
  // FEED, plus the seal timer's next firing and tie-break rank.
  Part<Ar, core::CandidateFeed> feed{};
  std::int64_t sealFireAtUs = 0;
  std::uint64_t sealSeq = 0;
  // NETW
  Part<Ar, net::Network> network{};
  // FALT, plus one timer per attack stage.
  Part<Ar, fault::FaultInjector> fault{};
  std::vector<TimerRecord> attackTimers;
  // AVMN: the fold cursor, the owner's state and the epoch-fold timer.
  std::uint64_t avmonCursor = 0;
  Part<Ar, avmon::AvmonSystem> avmon{};
  TimerRecord avmonTimer;
  // SRNG
  sim::Rng facadeRng;
  // MRKV
  std::vector<std::uint64_t> markovCursors;
};

/// SIMU: restoring `executed` keeps the scale-sweep `events` column
/// comparable across the restore boundary (a thread-invariance key).
template <class Ar>
void persistSimu(Ar& ar, World<Ar>& w) {
  ar(w.nowUs, w.executed);
}

/// NODS: per-node protocol state.
template <class Ar>
void persistNods(Ar& ar, World<Ar>& w) {
  ar.count(w.nodes, SameSize{"checkpoint nodes: population mismatch"});
  for (auto& node : w.nodes) persist(ar, node);
}

/// ENGS: engine counters.
template <class Ar>
void persistEngs(Ar& ar, World<Ar>& w) {
  auto& e = w.engine;
  ar(e.discoveryRounds, e.refreshRounds, e.skippedOffline, e.feedCandidates);
}

/// WHLS: fire times and tie-break ranks only; slot *membership* is
/// reproduced from RNG state on restore and cross-checked against these
/// records.
template <class Ar>
void persistWhls(Ar& ar, World<Ar>& w) {
  for (auto& wheel : w.wheels) {
    ar.count(wheel, Fits{kSlotRecordBytes,
                         "checkpoint wheel: slot count exceeds payload"});
    for (auto& rec : wheel) persist(ar, rec);
  }
}

/// SHFV: coarse views, rounds, stream seeds and the post-bootstrap RNG.
template <class Ar>
void persistShfv(Ar& ar, World<Ar>& w) {
  auto [views, rounds, completedShuffles, planSeed, wireSeed, rng] =
      fields(w.shuffle);
  ar.count(views, SameSize{"checkpoint views: population mismatch"});
  for (auto& view : views) ar.array(view);
  ar.array(rounds);
  ar.check(rounds.size() == w.ctx.hosts,
           "checkpoint views: round count mismatch");
  ar(completedShuffles, planSeed, wireSeed);
  persist(ar, rng);
}

/// CHAN: every in-flight shuffle leg (heap array order preserved — pops
/// depend on the layout), the arena, ack bookkeeping, the armed wake
/// (instant + tie-break rank) and the wire RNG.
template <class Ar>
void persistChan(Ar& ar, World<Ar>& w) {
  auto [heap, arena, liveEntries, awaitingAck, nextSeq, nextOrder, wakeUs,
        rng] = fields(w.channel);
  ar.count(heap, Fits{kShuffleMsgBytes,
                      "checkpoint channel: heap length exceeds payload"});
  for (auto& msg : heap) persist(ar, msg);
  ar.array(arena);
  persistSize(ar, liveEntries);
  // Deliveries read each record's spans straight out of the arena, and
  // the drain subtracts them from liveEntries.
  std::uint64_t spanned = 0;
  for (const auto& msg : heap) {
    ar.check(std::uint64_t{msg.payloadOffset} + msg.payloadCount <=
                     arena.size() &&
                 std::uint64_t{msg.echoOffset} + msg.echoCount <=
                     arena.size(),
             "checkpoint channel: message span outside the arena");
    spanned += std::uint64_t{msg.payloadCount} + msg.echoCount;
  }
  ar.check(spanned == liveEntries,
           "checkpoint channel: live entry count does not match the heap");
  std::vector<std::uint64_t> ackSeqs(awaitingAck.begin(), awaitingAck.end());
  ar.array(ackSeqs);
  ar(nextSeq, nextOrder, wakeUs, w.wakeSeq);
  if constexpr (Ar::kLoading) {
    // A request is awaited from its send until its ack or its timeout
    // record settles it: each awaited seq was issued, once, and its
    // timeout record is still in the heap.
    std::vector<std::uint64_t> timeouts;
    for (const auto& msg : heap) {
      if (msg.kind == net::ShuffleMsg::Kind::kTimeout) {
        timeouts.push_back(msg.seq);
      }
    }
    std::sort(timeouts.begin(), timeouts.end());
    ar.check(std::adjacent_find(ackSeqs.begin(), ackSeqs.end(),
                                std::greater_equal<>()) == ackSeqs.end() &&
                 (ackSeqs.empty() || ackSeqs.back() < nextSeq) &&
                 std::includes(timeouts.begin(), timeouts.end(),
                               ackSeqs.begin(), ackSeqs.end()),
             "checkpoint channel: pending acks not ascending, issued and "
             "timed");
    awaitingAck.insert(ackSeqs.begin(), ackSeqs.end());
  }
  persist(ar, rng);
}

/// FEED: both directory sides plus the seal timer.
template <class Ar>
void persistFeed(Ar& ar, World<Ar>& w) {
  auto [frozen, frozenPopulation, building, buildingPopulation,
        publishedInEpoch, sealedEpochs] = fields(w.feed);
  ar.count(frozen, SameSize{"checkpoint feed: bucket count mismatch"});
  for (auto& bucket : frozen) ar.array(bucket);
  persistSize(ar, frozenPopulation);
  ar.count(building, SameSize{"checkpoint feed: bucket count mismatch"});
  for (auto& bucket : building) ar.array(bucket);
  persistSize(ar, buildingPopulation);
  ar.array(publishedInEpoch);
  ar.check(publishedInEpoch.size() == w.ctx.hosts,
           "checkpoint feed: population mismatch");
  ar(sealedEpochs, w.sealFireAtUs, w.sealSeq);
}

/// NETW: wire counters and the latency RNG.
template <class Ar>
void persistNetw(Ar& ar, World<Ar>& w) {
  auto [st, rng] = fields(w.network);
  ar(st.sent, st.delivered, st.rejected, st.droppedOffline, st.acksSent,
     st.ackTimeouts, st.bytesSent, st.duplicated, st.injectedDrops);
  persist(ar, rng);
}

/// FALT: the fault injector's counter streams, tallies, and attacker
/// campaign timers. The campaign itself is not serialized — the config
/// fingerprint already pins it, so a stage count other than the plan's
/// means a corrupt or hand-edited file, not a config drift.
template <class Ar>
void persistFalt(Ar& ar, World<Ar>& w) {
  auto [wireSeq, st, sweepsDone] = fields(w.fault);
  ar(wireSeq, st.injectedDrops, st.duplicated, st.delayed, st.attackSweeps,
     st.attackTargets, st.attackAccepted);
  ar.count(sweepsDone,
           SameSize{"checkpoint fault: attack stage count mismatch"});
  if constexpr (Ar::kLoading) w.attackTimers.resize(sweepsDone.size());
  for (std::size_t i = 0; i < sweepsDone.size(); ++i) {
    persist(ar, w.attackTimers[i]);
    ar(sweepsDone[i]);
  }
}

/// AVMN: the fold cursor, ping accounting, the epoch-task timer, and the
/// materialized counter cells in ascending target order (monitor lists
/// are a pure hash, rebuilt and cross-checked on restore).
template <class Ar>
void persistAvmn(Ar& ar, World<Ar>& w) {
  ar(w.avmonCursor);
  // The fold cursor never passes the last epoch (AvmonSystem::start); a
  // larger one would make the next materialization's catch-up read past
  // the trace.
  ar.check(w.avmonCursor < w.ctx.traceEpochs,
           "checkpoint avmon: fold cursor past the trace's last epoch");
  auto [pings, cells] = fields(w.avmon);
  ar(pings.sent, pings.delivered, pings.lostToFaults, pings.bytes);
  persist(ar, w.avmonTimer);
  std::vector<net::NodeIndex> targets;
  if constexpr (!Ar::kLoading) {
    for (std::size_t t = 0; t < cells.size(); ++t) {
      if (cells[t] != nullptr) targets.push_back(static_cast<net::NodeIndex>(t));
    }
  }
  ar.count(targets, AtMost{w.ctx.hosts,
                           "checkpoint avmon: cell count exceeds population"});
  for (std::size_t i = 0; i < targets.size(); ++i) {
    ar(targets[i]);
    // A duplicate target would silently replace the earlier cell's
    // counters.
    ar.check(targets[i] < w.ctx.hosts &&
                 (i == 0 || targets[i] > targets[i - 1]),
             "checkpoint avmon: cell targets out of range or not strictly "
             "ascending");
    auto& cell = cells[targets[i]];
    if constexpr (Ar::kLoading) {
      cell = std::make_unique<avmon::AvmonSystem::TargetCell>();
    }
    ar.array(cell->samples);
    ar.array(cell->up);
  }
}

/// SRNG: the facade RNG (pickInitiator draws) — restoring it keeps
/// post-restore anycast batches identical to a straight-through run.
template <class Ar>
void persistSrng(Ar& ar, World<Ar>& w) {
  persist(ar, w.facadeRng);
}

/// MRKV: the Markov trace's per-host cursors. Pure caches — omitting them
/// changes no answer — but restoring them makes the first post-restore
/// epoch O(1) per host instead of a block replay.
template <class Ar>
void persistMrkv(Ar& ar, World<Ar>& w) {
  ar.array(w.markovCursors);
  ar.check(w.markovCursors.size() == w.ctx.hosts,
           "checkpoint markov: cursor count mismatch");
}

/// One checkpoint section. A section with an `owner` exists iff that
/// owner is active in the system; restore requires every section that
/// exists to be present, unless it is optional (a pure cache).
template <class Ar>
struct Section {
  std::uint32_t tag;
  bool Context::*owner;  ///< nullptr: every system has it
  bool optional;
  void (*persist)(Ar&, World<Ar>&);
};

/// The format, in file order. A reader skips tags it does not know; adding
/// a section is forward-compatible, changing an existing section's layout
/// bumps kFormatVersion.
template <class Ar>
constexpr Section<Ar> kSections[] = {
    {fourcc('S', 'I', 'M', 'U'), nullptr, false, persistSimu<Ar>},
    {fourcc('N', 'O', 'D', 'S'), nullptr, false, persistNods<Ar>},
    {fourcc('E', 'N', 'G', 'S'), nullptr, false, persistEngs<Ar>},
    {fourcc('W', 'H', 'L', 'S'), nullptr, false, persistWhls<Ar>},
    {fourcc('S', 'H', 'F', 'V'), nullptr, false, persistShfv<Ar>},
    {fourcc('C', 'H', 'A', 'N'), nullptr, false, persistChan<Ar>},
    {fourcc('F', 'E', 'E', 'D'), &Context::hasFeed, false, persistFeed<Ar>},
    {fourcc('N', 'E', 'T', 'W'), nullptr, false, persistNetw<Ar>},
    {fourcc('F', 'A', 'L', 'T'), &Context::hasFault, false, persistFalt<Ar>},
    {fourcc('A', 'V', 'M', 'N'), &Context::hasAvmon, false, persistAvmn<Ar>},
    {fourcc('S', 'R', 'N', 'G'), nullptr, false, persistSrng<Ar>},
    {fourcc('M', 'R', 'K', 'V'), &Context::hasMarkov, true, persistMrkv<Ar>},
};

template <class Ar>
bool exists(const Section<Ar>& s, const Context& ctx) {
  return s.owner == nullptr || ctx.*(s.owner);
}

std::string tagName(std::uint32_t tag) {
  return std::string(reinterpret_cast<const char*>(&tag), sizeof tag);
}

// --- event bookkeeping ------------------------------------------------------

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

/// One event the gathered world re-arms on restore: its fire time and the
/// record field holding its queue tie-break seq.
struct SavedEvent {
  std::int64_t atUs;
  std::uint64_t* seq;
};

std::vector<SavedEvent> savedEvents(World<Writer>& w) {
  std::vector<SavedEvent> events;
  for (auto& wheel : w.wheels) {
    for (SlotRecord& r : wheel) events.push_back({r.fireAtUs, &r.seq});
  }
  const std::int64_t wakeUs = w.channel->scheduledWakeMicros();
  if (wakeUs != net::ShuffleChannel::kNoWake) {
    events.push_back({wakeUs, &w.wakeSeq});
  }
  if (w.ctx.hasFeed) events.push_back({w.sealFireAtUs, &w.sealSeq});
  for (TimerRecord& t : w.attackTimers) {
    if (t.running != 0) events.push_back({t.fireAtUs, &t.seq});
  }
  if (w.avmonTimer.running != 0) {
    events.push_back({w.avmonTimer.fireAtUs, &w.avmonTimer.seq});
  }
  return events;
}

/// Save-time gate: the format captures maintenance-quiescent worlds only.
/// Every live event must be one the gathered world re-arms on restore;
/// anything else (an anycast timeout, a multicast horizon, a test's ad-hoc
/// timer) cannot be reconstructed from state and must fail loudly.
void verifyEventAccounting(const sim::Simulator& simulator,
                           std::size_t accounted) {
  const std::size_t live = simulator.liveEventCount();
  if (live != accounted) {
    throw CheckpointUnsupportedError(
        "checkpoint: " + std::to_string(live) + " live events but only " +
        std::to_string(accounted) +
        " accounted maintenance timers — an unfinished management "
        "operation (anycast/multicast) cannot be checkpointed");
  }
}

/// Replace every saved event's raw queue seq with its dense rank in
/// (fireAt, rawSeq) order. The raw counters are run-history artifacts
/// (they keep growing over a run); ranks carry exactly the information
/// restore needs — the relative order of same-instant events — and make
/// serialization canonical: a restored world re-saves byte-identically,
/// because its fresh queue hands out seqs 0..k-1 in precisely this order
/// (the roundtrip property test pins this down).
void rankSavedEvents(std::vector<SavedEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const SavedEvent& a, const SavedEvent& b) {
              return a.atUs != b.atUs ? a.atUs < b.atUs : *a.seq < *b.seq;
            });
  for (std::size_t r = 0; r < events.size(); ++r) *events[r].seq = r;
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

/// A running periodic task's next firing, its raw tie-break seq pending
/// rankSavedEvents.
TimerRecord timerOf(const sim::Simulator& simulator,
                    const sim::PeriodicTask& task, const char* what) {
  if (!task.running()) return {};
  return {1, task.nextFireAt().toMicros(),
          liveSeqOf(simulator, task.pendingHandle(), what)};
}

/// Restore-time check of one wheel: its saved records must arm exactly the
/// populated slots of the assignment its RNG state reproduces, in the
/// ascending slot order the writer emits.
void checkWheel(const sim::ShardedScheduler::Slots& slots,
                const std::vector<SlotRecord>& recs, const char* name) {
  const auto populated = static_cast<std::size_t>(
      std::count_if(slots.begin(), slots.end(),
                    [](const auto& slot) { return !slot.empty(); }));
  bool ok = recs.size() == populated;
  for (std::size_t i = 0; ok && i < recs.size(); ++i) {
    const std::uint32_t s = recs[i].slot;
    ok = s < slots.size() && !slots[s].empty() &&
         (i == 0 || s > recs[i - 1].slot);
  }
  if (!ok) {
    throw CheckpointFormatError(
        std::string("checkpoint: ") + name +
        " wheel armed slots do not match the slot assignment its RNG "
        "state reproduces");
  }
}

/// One deferred re-arm, executed in ascending (fireAt, savedSeq) order so
/// the fresh event queue reproduces every same-instant tie outcome.
struct ArmRequest {
  std::int64_t atUs = 0;
  std::uint64_t savedSeq = 0;
  std::function<void()> arm;
};

/// The Markov churn model behind the simulation's availability model,
/// which may be wrapped in a fault-plan outage overlay; null for other
/// backends.
trace::MarkovChurnModel* markovOf(trace::AvailabilityModel* m) {
  if (auto* ov = dynamic_cast<fault::OutageOverlayModel*>(m)) {
    m = &ov->inner();
  }
  return dynamic_cast<trace::MarkovChurnModel*>(m);
}

/// A simulation's Context, from the parts only the CheckpointAccess friend
/// seam can reach.
Context contextOf(std::size_t hosts, trace::AvailabilityModel* trace,
                  bool hasFeed, bool hasFault, bool hasAvmon) {
  return {hosts,          trace->epochCount(), hasFeed,
          hasFault,       hasAvmon,            markovOf(trace) != nullptr};
}

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
  // Former knobs that became constants stay mixed in at their positions,
  // so every existing checkpoint keeps its fingerprint.
  m.add(avmon::kShuffleDeliveryQuantum);
  // Backend selection and parameters.
  m.add(static_cast<std::uint64_t>(config.backend));
  m.add(config.noisyMaxError);
  m.add(core::kNoisyStaleness);
  // Two retired backend knobs, mixed in at their last defaults so every
  // existing checkpoint keeps its fingerprint.
  m.add(0.05);
  m.add(sim::SimDuration::hours(2));
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
  m.add(core::CandidateFeed::kThresholdSlack);
  m.add(sim::SimDuration::zero());  // retired seal-period knob (zero: follow
                                    // the Discovery period)
  // Remaining result-determining knobs. maintenanceThreads is deliberately
  // absent: a checkpoint restores at any thread count.
  m.add(static_cast<std::uint64_t>(config.useCoarseViewOverlay ? 1 : 0));
  m.add(static_cast<std::uint64_t>(core::kPdfBins));
  m.add(config.seed);
  m.add(static_cast<std::uint64_t>(config.maintenanceShards));
  // The fault campaign is world state — a mid-campaign checkpoint only
  // restores into the same campaign. An empty plan fingerprints to 0,
  // keeping faultless checkpoints stable.
  m.add(config.faultPlan.fingerprint());
  return m.result();
}

// --- save -------------------------------------------------------------------

void CheckpointAccess::save(const AvmemSimulation& sim, std::ostream& out) {
  if (!sim.started_) {
    throw CheckpointUnsupportedError(
        "checkpoint: system not started (nothing warm to save)");
  }
  World<Writer> w;
  w.ctx = contextOf(sim.nodes_.size(), sim.trace_.get(), sim.feed_ != nullptr,
                    sim.fault_ != nullptr, sim.avmonSystem_ != nullptr);
  w.nowUs = sim.sim_->now().toMicros();
  w.executed = sim.sim_->executedEvents();
  w.nodes = sim.nodes_;
  w.engine = sim.engine_->stats();
  w.wheels = {
      collectWheel(*sim.sim_, sim.engine_->discoveryScheduler(), "discovery"),
      collectWheel(*sim.sim_, sim.engine_->refreshScheduler(), "refresh"),
      collectWheel(*sim.sim_, sim.shuffle_->scheduler(), "shuffle")};
  w.shuffle = sim.shuffle_.get();
  w.channel = &sim.shuffle_->channel();
  if (w.channel->scheduledWakeMicros() != net::ShuffleChannel::kNoWake) {
    w.wakeSeq = liveSeqOf(*sim.sim_, w.channel->wakeHandle(), "channel wake");
  }
  if (sim.feed_ != nullptr) {
    w.feed = sim.feed_.get();
    const sim::PeriodicTask& seal = sim.feed_->sealTask();
    w.sealFireAtUs = seal.nextFireAt().toMicros();
    w.sealSeq = liveSeqOf(*sim.sim_, seal.pendingHandle(), "feed seal");
  }
  w.network = sim.network_.get();
  if (sim.fault_ != nullptr) {
    w.fault = sim.fault_.get();
    for (const auto& task : sim.attackTasks_) {
      w.attackTimers.push_back(timerOf(*sim.sim_, *task, "attack campaign"));
    }
  }
  if (sim.avmonSystem_ != nullptr) {
    w.avmonCursor = sim.avmonSystem_->advancedEpochs();
    w.avmon = sim.avmonSystem_.get();
    w.avmonTimer = timerOf(*sim.sim_, sim.avmonSystem_->epochTask(),
                           "avmon epoch fold");
  }
  w.facadeRng = sim.rng_;
  if (w.ctx.hasMarkov) {
    w.markovCursors = markovOf(sim.trace_.get())->saveCursors();
  }
  std::vector<SavedEvent> events = savedEvents(w);
  verifyEventAccounting(*sim.sim_, events.size());
  rankSavedEvents(std::move(events));

  CheckpointWriter writer(out);
  FileHeader header;
  header.version = kFormatVersion;
  header.fingerprint = configFingerprint(sim.config_);
  header.hosts = sim.nodes_.size();
  header.seed = sim.config_.seed;
  writer.writeHeader(header);

  SectionWriter sec;
  for (const Section<Writer>& s : kSections<Writer>) {
    if (!exists(s, w.ctx)) continue;
    sec.clear();
    Writer ar(sec);
    s.persist(ar, w);
    writer.writeSection(s.tag, sec);
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
        "taken under a different configuration (thread count aside, "
        "every knob must match)");
  }
  const std::size_t n = sim.nodes_.size();
  if (header.hosts != n) {
    throw CheckpointConfigError("checkpoint: population mismatch");
  }

  // --- parse every section into staged values (skipping unknown tags) ---

  World<Reader> w;
  w.ctx = contextOf(sim.nodes_.size(), sim.trace_.get(), sim.feed_ != nullptr,
                    sim.fault_ != nullptr, sim.avmonSystem_ != nullptr);
  std::vector<core::AvmemNode> nodes;
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes.emplace_back(static_cast<net::NodeIndex>(i), *sim.ctx_);
  }
  w.nodes = nodes;
  // Staged values start as copies of the fresh owners', so SameSize
  // bounds see their population and bucket counts.
  w.shuffle = sim.shuffle_->persistedState();
  w.channel = sim.shuffle_->channel().persistedState();
  if (w.ctx.hasFeed) w.feed = sim.feed_->persistedState();
  w.network = sim.network_->persistedState();
  if (w.ctx.hasFault) w.fault = sim.fault_->persistedState();
  if (w.ctx.hasAvmon) std::get<avmon::AvmonSystem::Cells>(w.avmon).resize(n);

  std::set<std::uint32_t> seen;
  std::uint32_t id = 0;
  std::vector<std::uint8_t> payload;
  while (reader.nextSection(id, payload)) {
    const auto* s = std::find_if(
        std::begin(kSections<Reader>), std::end(kSections<Reader>),
        [id](const Section<Reader>& sec) { return sec.tag == id; });
    if (s == std::end(kSections<Reader>)) continue;  // forward compatibility
    if (!seen.insert(id).second) {
      throw CheckpointFormatError("checkpoint: section " + tagName(id) +
                                  " appears twice");
    }
    if (!exists(*s, w.ctx) && !s->optional) {
      throw CheckpointFormatError("checkpoint: section " + tagName(id) +
                                  " present but its owner is not active "
                                  "under this configuration");
    }
    Cursor c(payload.data(), payload.size());
    Reader ar(c);
    s->persist(ar, w);
    if (!c.atEnd()) {
      throw CheckpointFormatError("checkpoint: section " + tagName(id) +
                                  " has unread trailing bytes");
    }
  }

  for (const Section<Reader>& s : kSections<Reader>) {
    if (exists(s, w.ctx) && !s.optional && !seen.contains(s.tag)) {
      throw CheckpointFormatError("checkpoint: missing section " +
                                  tagName(s.tag));
    }
  }

  // --- validate what needs more than one section or the target system ---

  // Wheel slot membership is not saved: the staged RNG state reproduces
  // it, once per wheel, and the install below builds the wheels from
  // these same assignments.
  std::array<sim::ShardedScheduler::Slots, 3> slots = {
      sim.engine_->discoverySlots(), sim.engine_->refreshSlots(),
      sim.shuffle_->slotsFor(std::get<sim::Rng>(w.shuffle))};
  checkWheel(slots[0], w.wheels[0], "discovery");
  checkWheel(slots[1], w.wheels[1], "refresh");
  checkWheel(slots[2], w.wheels[2], "shuffle");

  if (w.ctx.hasAvmon) {
    // The epoch-fold timer is where AvmonSystem::start() arms it for the
    // staged fold cursor.
    const std::optional<sim::SimTime> fold =
        sim.avmonSystem_->nextFold(w.avmonCursor);
    const bool running = w.avmonTimer.running != 0;
    if (running != fold.has_value() ||
        (running && fold->toMicros() != w.avmonTimer.fireAtUs)) {
      throw CheckpointFormatError(
          "checkpoint avmon: epoch-fold timer does not match the fold "
          "cursor");
    }
    // Cells are checked against monitor sets rebuilt from the hash; each
    // target is scanned once, here, and the install only moves them in.
    try {
      sim.avmonSystem_->restoreStage(
          std::get<avmon::AvmonSystem::Cells>(w.avmon));
    } catch (const std::invalid_argument& e) {
      throw CheckpointFormatError(std::string("checkpoint avmon: ") +
                                  e.what());
    }
  }

  // Every saved event re-arms at its saved instant, in (fireAt, saved
  // tie-break seq) order: the fresh queue assigns seqs 0..k-1 in arming
  // order, so this reproduces every same-instant tie outcome, and events
  // scheduled after the restore sort behind all of these, exactly as
  // events scheduled after time T sorted behind the then-pending set in
  // the straight-through run. The queue refuses instants before the
  // restored clock, so those are rejected here.
  std::vector<ArmRequest> arms;
  auto armWheel = [&arms](sim::ShardedScheduler& wheel,
                          const std::vector<SlotRecord>& recs) {
    for (const SlotRecord& rec : recs) {
      arms.push_back({rec.fireAtUs, rec.seq,
                      [&wheel, slot = rec.slot, at = rec.fireAtUs] {
                        wheel.armSlot(slot, sim::SimTime::micros(at));
                      }});
    }
  };
  armWheel(sim.engine_->discoveryWheel(), w.wheels[0]);
  armWheel(sim.engine_->refreshWheel(), w.wheels[1]);
  armWheel(sim.shuffle_->wheel(), w.wheels[2]);

  net::ShuffleChannel& channel = sim.shuffle_->channel();
  const auto wakeUs = std::get<std::int64_t>(w.channel);
  if (wakeUs != net::ShuffleChannel::kNoWake) {
    arms.push_back({wakeUs, w.wakeSeq, [&channel] { channel.armWake(); }});
  }
  if (w.ctx.hasFeed) {
    arms.push_back(
        {w.sealFireAtUs, w.sealSeq, [&sim, at = w.sealFireAtUs] {
           sim.feed_->armSeal(*sim.sim_,
                              sim.config_.protocol.discoveryPeriod,
                              sim::SimTime::micros(at));
         }});
  }
  for (std::size_t i = 0; i < w.attackTimers.size(); ++i) {
    const TimerRecord& t = w.attackTimers[i];
    if (t.running == 0) continue;  // stage window already closed
    arms.push_back(
        {t.fireAtUs, t.seq, [&sim, i, at = t.fireAtUs] {
           sim.attackTasks_[i]->start(
               *sim.sim_, sim::SimTime::micros(at),
               sim::SimDuration::micros(
                   sim.config_.faultPlan.attacks[i].periodUs),
               [simPtr = &sim, i] { simPtr->fireAttackStage(i); });
         }});
  }
  if (w.avmonTimer.running != 0) {
    // Lands at the saved instant: checked against nextFold() above.
    arms.push_back({w.avmonTimer.fireAtUs, w.avmonTimer.seq,
                    [&sim] { sim.avmonSystem_->start(); }});
  }
  for (const ArmRequest& req : arms) {
    if (req.atUs < w.nowUs) {
      throw CheckpointFormatError(
          "checkpoint: a saved event fires before the saved clock");
    }
  }
  std::sort(arms.begin(), arms.end(),
            [](const ArmRequest& a, const ArmRequest& b) {
              return a.atUs != b.atUs ? a.atUs < b.atUs
                                      : a.savedSeq < b.savedSeq;
            });

  // --- install: every check has passed, and nothing below throws ---

  sim.started_ = true;
  sim.sim_->restoreClock(sim::SimTime::micros(w.nowUs), w.executed);
  for (std::size_t i = 0; i < n; ++i) sim.nodes_[i] = std::move(nodes[i]);
  sim.engine_->prepareResume(std::move(slots[0]), std::move(slots[1]));
  sim.engine_->restoreStats(w.engine);
  sim.shuffle_->persistedState() = std::move(w.shuffle);
  channel.persistedState() = std::move(w.channel);
  sim.shuffle_->resume(std::move(slots[2]));
  if (w.ctx.hasFeed) sim.feed_->persistedState() = std::move(w.feed);
  sim.network_->persistedState() = std::move(w.network);
  sim.rng_ = w.facadeRng;
  if (w.ctx.hasFault) sim.fault_->persistedState() = std::move(w.fault);
  if (w.ctx.hasAvmon) {
    auto& [pings, cells] = w.avmon;
    sim.avmonSystem_->restoreInstall(w.avmonCursor, pings, std::move(cells));
  }
  if (w.ctx.hasMarkov && seen.contains(fourcc('M', 'R', 'K', 'V'))) {
    markovOf(sim.trace_.get())->restoreCursors(w.markovCursors);
  }

  // --- re-arm ---

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
