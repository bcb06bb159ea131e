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
#include <cstdint>
#include <optional>

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

/// Ground truth: fraction uptime from trace start to the current instant.
class OracleAvailabilityService final : public AvailabilityService {
 public:
  OracleAvailabilityService(const trace::AvailabilityModel& trace,
                            const sim::Simulator& sim) noexcept
      : trace_(trace), sim_(sim) {}

  /// Model reads are const and data-race-free (the Markov backend's
  /// cursor is a relaxed atomic; a recorded trace is immutable).
  [[nodiscard]] std::optional<double> query(NodeIndex /*querier*/,
                                            NodeIndex target) override {
    return trace_.availabilityAt(target, sim_.now());
  }

 private:
  const trace::AvailabilityModel& trace_;
  const sim::Simulator& sim_;
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
