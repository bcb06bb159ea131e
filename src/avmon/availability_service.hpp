// The availability monitoring service abstraction.
//
// AVMEM consumes availability monitoring as a black box (paper Section
// 3.1): "an availability monitoring service is defined as one that can be
// queried for the long-term availability of any given node. It returns an
// answer that is reasonably accurate, and that is reasonably consistent
// over time." Three implementations, the only ones AvmemSimulation builds:
//
//  * OracleAvailabilityService — ground truth from the churn trace; the
//    perfectly-accurate, perfectly-consistent limit.
//  * NoisyAvailabilityService — wraps another service and adds bounded,
//    *querier-dependent* deterministic error plus staleness; models the
//    inaccuracy/inconsistency that drives Figures 5-6.
//  * AvmonAvailabilityService (avmon_monitors.hpp) — a full AVMON [17]
//    re-implementation: consistent monitor sets sampling targets through
//    churn, with inconsistency arising organically from which monitor a
//    querier consults.
//
// Every implementation answers query() as a pure read, so the parallel
// maintenance plan phase may call it from any number of threads at once
// (see AvailabilityService::query).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "trace/availability_model.hpp"

namespace avmem::avmon {

using net::NodeIndex;

/// Query interface. `querier` matters: a distributed monitoring service may
/// give different queriers (slightly) different answers for one target.
class AvailabilityService {
 public:
  virtual ~AvailabilityService() = default;

  /// The long-term availability of `target` as visible to `querier` now.
  /// nullopt when the service has no estimate (e.g. never-observed node).
  ///
  /// Called concurrently from the parallel maintenance plan phase: the
  /// answer must be a pure function of (querier, target, sim time), with
  /// no unsynchronized mutable state on the query path.
  [[nodiscard]] virtual std::optional<double> query(NodeIndex querier,
                                                    NodeIndex target) = 0;
};

/// Ground truth: "is h online now" and "h's fraction uptime from trace
/// start to now", served from one table per churn epoch.
///
/// Both answers are pure functions of (host, epoch) and an epoch lasts
/// many maintenance rounds, so the first read in a new epoch fills two
/// per-host arrays (an online flag and an availability) from the model's
/// own onlineInEpoch()/availabilityUpToEpoch(), and every later read in
/// that epoch is one array load: bit-identical to asking the model, in
/// O(hosts) once per epoch and ~9 B per host. A host index out of range
/// falls through to the model, which throws std::out_of_range.
///
/// Concurrency contract: the simulated clock moves only in serial code
/// between worker-pool fan-outs, so all concurrent readers share one
/// epoch. The rebuild runs under a mutex behind a double-checked
/// acquire/release epoch tag, so racing first readers fill the table once
/// and a rebuild never overlaps a read of the older table. Reads of "now"
/// (the network's and the engines' online gates, the oracle query, the
/// simulation's ground truth) go through here; the model itself still
/// serves direct and historical queries.
class OracleAvailabilityService final : public AvailabilityService {
 public:
  OracleAvailabilityService(const trace::AvailabilityModel& trace,
                            const sim::Simulator& sim)
      : trace_(trace),
        sim_(sim),
        online_(trace.hostCount()),
        availability_(trace.hostCount()) {}

  [[nodiscard]] std::optional<double> query(NodeIndex /*querier*/,
                                            NodeIndex target) override {
    return availability(target);
  }

  /// trace.onlineAt(h, now).
  [[nodiscard]] bool online(NodeIndex h) const {
    if (h >= online_.size()) return trace_.onlineAt(h, sim_.now());
    syncToNow();
    return online_[h] != 0;
  }

  /// trace.availabilityAt(h, now).
  [[nodiscard]] double availability(NodeIndex h) const {
    if (h >= availability_.size()) {
      return trace_.availabilityAt(h, sim_.now());
    }
    syncToNow();
    return availability_[h];
  }

 private:
  static constexpr std::size_t kNoEpoch = ~std::size_t{0};

  void syncToNow() const {
    const std::size_t e = trace_.epochAt(sim_.now());
    if (builtEpoch_.load(std::memory_order_acquire) != e) rebuild(e);
  }

  void rebuild(std::size_t e) const {
    const std::lock_guard<std::mutex> lock(rebuildMutex_);
    if (builtEpoch_.load(std::memory_order_relaxed) == e) return;
    const auto n = static_cast<trace::HostIndex>(online_.size());
    for (trace::HostIndex h = 0; h < n; ++h) {
      online_[h] = trace_.onlineInEpoch(h, e) ? 1 : 0;
      availability_[h] = trace_.availabilityUpToEpoch(h, e);
    }
    builtEpoch_.store(e, std::memory_order_release);
  }

  const trace::AvailabilityModel& trace_;
  const sim::Simulator& sim_;
  /// Serializes rebuilds; readers synchronize through builtEpoch_.
  mutable std::mutex rebuildMutex_;
  mutable std::vector<std::uint8_t> online_;
  mutable std::vector<double> availability_;
  /// Epoch the arrays hold; stored (release) after they are filled.
  mutable std::atomic<std::size_t> builtEpoch_{kNoEpoch};
};

/// Deterministic noise + staleness wrapper.
///
/// Answers are quantized to `stalenessPeriod` buckets (a fresh value is
/// fetched once per bucket) and perturbed by a uniform error in
/// [-maxError, +maxError] that is a pure function of
/// (querier, target, bucket) — so two queriers disagree, and one querier's
/// view changes only at bucket boundaries. This mirrors a real monitoring
/// overlay's behaviour without prescribing its internals.
class NoisyAvailabilityService final : public AvailabilityService {
 public:
  NoisyAvailabilityService(AvailabilityService& inner,
                           const sim::Simulator& sim, double maxError,
                           sim::SimDuration stalenessPeriod,
                           std::uint64_t seed) noexcept
      : inner_(inner),
        sim_(sim),
        maxError_(maxError),
        stalenessPeriod_(stalenessPeriod),
        seed_(seed) {}

  [[nodiscard]] std::optional<double> query(NodeIndex querier,
                                            NodeIndex target) override {
    const auto base = inner_.query(querier, target);
    if (!base) return std::nullopt;

    const std::uint64_t bucket =
        stalenessPeriod_ > sim::SimDuration::zero()
            ? static_cast<std::uint64_t>(sim_.now().toMicros() /
                                         stalenessPeriod_.toMicros())
            : 0;
    // Hash (querier, target, bucket) into a deterministic error sample.
    std::uint64_t h = seed_;
    h ^= sim::splitMix64(h) ^ querier;
    h ^= sim::splitMix64(h) ^ target;
    h ^= sim::splitMix64(h) ^ bucket;
    const double u =
        static_cast<double>(sim::splitMix64(h) >> 11) * 0x1.0p-53;
    const double err = (2.0 * u - 1.0) * maxError_;
    return std::clamp(*base + err, 0.0, 1.0);
  }

 private:
  AvailabilityService& inner_;
  const sim::Simulator& sim_;
  double maxError_;
  sim::SimDuration stalenessPeriod_;
  std::uint64_t seed_;
};

}  // namespace avmem::avmon
