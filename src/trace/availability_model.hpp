// The availability-model abstraction: who is online when, behind one
// interface with interchangeable representations.
//
// Every layer above the trace asks the same two questions — is host h
// online at time t, and what is h's long-term availability up to t — but
// the right representation depends on the experiment:
//
//  * ChurnTrace (churn_trace.hpp) — a recorded timeline, bit-packed 64
//    epochs per word with per-word population counts. Paper-fidelity
//    figures and on-disk traces; O(1) queries at ~0.19 bytes per
//    host-epoch (an availability query popcounts one word).
//  * MarkovChurnModel (markov_churn.hpp) — no stored timeline at all: a
//    per-host two-state Markov chain generated on the fly from
//    (p_up, mean-session-length) parameters. O(hosts) memory independent
//    of trace duration; deterministic per seed. The million-node backend.
//
// The two pure queries every backend must answer are onlineInEpoch() and
// onlineEpochsThrough(); all time-based and fractional queries derive
// from them here, so the backends cannot drift apart on epoch
// arithmetic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/time.hpp"

namespace avmem::trace {

/// Dense index of a host in a model (0 .. hostCount-1).
using HostIndex = std::uint32_t;

/// Interface shared by all churn/availability representations.
class AvailabilityModel {
 public:
  virtual ~AvailabilityModel() = default;

  [[nodiscard]] virtual std::size_t hostCount() const noexcept = 0;
  /// Number of modeled epochs. Generative backends report their horizon:
  /// the epoch count the experiment asked for, past which queries clamp
  /// exactly like a recorded trace's final state persisting.
  [[nodiscard]] virtual std::size_t epochCount() const noexcept = 0;
  [[nodiscard]] virtual sim::SimDuration epochDuration() const noexcept = 0;

  /// Online flag of host `h` in epoch `e`. Throws std::out_of_range for
  /// an unknown host or an epoch >= epochCount().
  [[nodiscard]] virtual bool onlineInEpoch(HostIndex h, std::size_t e)
      const = 0;

  /// Number of online epochs of host `h` in [0, e] inclusive; same range
  /// contract as onlineInEpoch(). The derived availability queries below
  /// clamp before calling.
  [[nodiscard]] virtual std::uint64_t onlineEpochsThrough(HostIndex h,
                                                          std::size_t e)
      const = 0;

  /// Approximate resident bytes of this representation (storage the model
  /// owns, not the config it was built from). Reported by bench/scale_sweep.
  [[nodiscard]] virtual std::size_t memoryFootprintBytes() const noexcept = 0;

  // --- derived queries (shared epoch arithmetic) ---------------------------

  /// Total modeled duration (epochCount * epochDuration).
  [[nodiscard]] sim::SimDuration duration() const noexcept {
    return epochDuration() * static_cast<std::int64_t>(epochCount());
  }

  /// Epoch index containing time `t`; times past the end clamp to the last
  /// epoch (the final state persists).
  [[nodiscard]] std::size_t epochAt(sim::SimTime t) const noexcept {
    const std::size_t epochs = epochCount();
    if (t <= sim::SimTime::zero() || epochs == 0) return 0;
    const auto e = static_cast<std::size_t>(t.toMicros() /
                                            epochDuration().toMicros());
    return e >= epochs ? epochs - 1 : e;
  }

  /// Start time of epoch `e`.
  [[nodiscard]] sim::SimTime epochStart(std::size_t e) const noexcept {
    return epochDuration() * static_cast<std::int64_t>(e);
  }

  [[nodiscard]] bool onlineAt(HostIndex h, sim::SimTime t) const {
    return onlineInEpoch(h, epochAt(t));
  }

  /// Fraction uptime of host `h` over epochs [0, e] inclusive (`e` clamps
  /// to the final epoch).
  ///
  /// This is the "long-term availability" an availability monitoring
  /// service reports (paper Section 3.1).
  [[nodiscard]] double availabilityUpToEpoch(HostIndex h,
                                             std::size_t e) const {
    const std::size_t last = clampEpoch(e);
    return static_cast<double>(onlineEpochsThrough(h, last)) /
           static_cast<double>(last + 1);
  }

  /// Fraction uptime of host `h` up to simulated time `t`.
  [[nodiscard]] double availabilityAt(HostIndex h, sim::SimTime t) const {
    return availabilityUpToEpoch(h, epochAt(t));
  }

  /// Long-term availability over the whole model. Recorded backends
  /// return the empirical full-trace fraction; generative backends may
  /// return the exact stationary value instead.
  [[nodiscard]] virtual double fullAvailability(HostIndex h) const {
    return availabilityUpToEpoch(h, epochCount() - 1);
  }

  /// Fraction uptime over the trailing window of `w` epochs ending at `e`.
  [[nodiscard]] double windowedAvailability(HostIndex h, std::size_t e,
                                            std::size_t w) const {
    if (w == 0) {
      throw std::invalid_argument("windowedAvailability: empty window");
    }
    const std::size_t last = clampEpoch(e);
    const std::size_t first = (last + 1 >= w) ? (last + 1 - w) : 0;
    const std::uint64_t before =
        first == 0 ? 0 : onlineEpochsThrough(h, first - 1);
    return static_cast<double>(onlineEpochsThrough(h, last) - before) /
           static_cast<double>(last + 1 - first);
  }

  /// Hosts online during epoch `e`. Backends may override with a faster
  /// scan (e.g. word-at-a-time over packed bits).
  [[nodiscard]] virtual std::vector<HostIndex> onlineHostsInEpoch(
      std::size_t e) const;

  /// Number of hosts online during epoch `e`.
  [[nodiscard]] virtual std::size_t onlineCountInEpoch(std::size_t e) const;

 protected:
  AvailabilityModel() = default;
  AvailabilityModel(const AvailabilityModel&) = default;
  AvailabilityModel& operator=(const AvailabilityModel&) = default;
  AvailabilityModel(AvailabilityModel&&) = default;
  AvailabilityModel& operator=(AvailabilityModel&&) = default;

  /// Clamp an epoch index into [0, epochCount()-1].
  [[nodiscard]] std::size_t clampEpoch(std::size_t e) const noexcept {
    const std::size_t epochs = epochCount();
    return e >= epochs ? epochs - 1 : e;
  }
};

}  // namespace avmem::trace
