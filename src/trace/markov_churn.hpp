// Streaming Markov churn: availability generated on the fly, O(hosts)
// memory independent of trace duration.
//
// The recorded backend (ChurnTrace) materializes a timeline; at a million
// hosts over the paper's 7-day/20-minute trace even its packed bitmap is
// ~90 MB. This backend stores *no timeline at
// all*: each host is a two-state (on/off) Markov chain over epochs — the
// same chain the synthetic Overnet generator runs (overnet_generator.cpp)
// — whose parameters are just (p_up, mean-session-length). State is
// computed on demand from counter-based randomness, so the whole model is
// one small record per host (~40 bytes) regardless of how many epochs the
// experiment covers.
//
// Determinism and access order: host h's state in epoch e is a pure
// function of (seed, h, e). The chain re-seeds from its stationary
// distribution every kBlockEpochs epochs, so a random-access query replays
// at most one block; queries advancing with simulated time (the common
// case) are O(1) amortized via a per-host cursor. Answers never depend on
// query order (asserted by tests/trace/markov_churn_test.cpp), and
// concurrent queries are safe: the cursor is one relaxed atomic word, so
// many threads may read the model with no locks and no effect on answers.
// The simulation's reads of "now" go through the oracle's per-epoch table
// (avmon::OracleAvailabilityService), which walks every cursor once per
// epoch; the cursor otherwise serves direct and historical queries (AVMON
// catch-up and epoch fold, the outage overlay's inner reads).
//
// Model fidelity: P(online in epoch e) = p_up exactly, for every e — the
// block re-seed preserves the stationary distribution, and long-term
// availability converges to p_up. Session lengths are geometric with the
// configured mean but truncate at block boundaries, and the generator's
// diurnal modulation is omitted; use a recorded backend when session
// microstructure matters.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/time.hpp"
#include "trace/availability_model.hpp"
#include "trace/overnet_generator.hpp"

namespace avmem::trace {

/// Transition probabilities of a two-state chain with stationary
/// on-fraction `pUp` and mean on-run `meanOn` epochs (see
/// markovRatesFor()).
struct MarkovRates {
  double pOff;  ///< P(on -> off)
  double qOn;   ///< P(off -> on)
};

/// Rates for stationary on-fraction `pUp` and mean session `meanOn`:
///   pOff = 1 / meanOn,  qOn = pOff * pUp / (1 - pUp).
/// For very high `pUp`, qOn would exceed 1; qOn is then fixed at 1 and
/// pOff re-solved, preserving the stationary distribution at the cost of
/// shorter sessions (a nearly-always-on host rejoins immediately anyway).
/// Shared with the synthetic Overnet generator.
[[nodiscard]] MarkovRates markovRatesFor(double pUp, double meanOn) noexcept;

/// Parameters for an explicitly-parameterized streaming model (the
/// Overnet-mixture constructor below reads these off OvernetTraceConfig
/// instead).
struct MarkovChurnConfig {
  std::uint32_t horizonEpochs = 7 * 24 * 3;  ///< reported epochCount()
  sim::SimDuration epochDuration = sim::SimDuration::minutes(20);
  std::uint64_t seed = 42;
  double meanSessionEpochs = 3.0;
};

/// The generative availability backend.
class MarkovChurnModel final : public AvailabilityModel {
 public:
  /// Draw per-host p_up from the same intrinsic-availability mixture (and
  /// the same RNG fork) as generateOvernetTrace(config): the availability
  /// marginal matches the synthetic trace for identical config.
  explicit MarkovChurnModel(const OvernetTraceConfig& config);

  /// Explicit per-host long-term availabilities (tests, custom mixes).
  MarkovChurnModel(std::vector<double> pUp, const MarkovChurnConfig& config);

  [[nodiscard]] std::size_t hostCount() const noexcept override {
    return chains_.size();
  }
  [[nodiscard]] std::size_t epochCount() const noexcept override {
    return horizon_;
  }
  [[nodiscard]] sim::SimDuration epochDuration() const noexcept override {
    return epochDuration_;
  }

  [[nodiscard]] bool onlineInEpoch(HostIndex h, std::size_t e) const override;
  [[nodiscard]] std::uint64_t onlineEpochsThrough(
      HostIndex h, std::size_t e) const override;

  /// The exact stationary availability p_up (what the empirical fraction
  /// converges to), not a sampled estimate.
  [[nodiscard]] double fullAvailability(HostIndex h) const override;

  [[nodiscard]] std::size_t memoryFootprintBytes() const noexcept override;

  /// Intrinsic availability parameter of host `h`.
  [[nodiscard]] double pUp(HostIndex h) const;

  /// Chain re-seed interval: bounds the replay cost of a random-access
  /// query and the maximum session length.
  static constexpr std::size_t kBlockEpochs = 64;

  /// Warm-state checkpointing (snapshot/): the per-host packed cursors.
  /// Pure caches — answers never depend on them — but restoring them
  /// makes the first post-restore epoch queries O(1) instead of replaying
  /// a block per host, which matters at 1M hosts. restoreCursors() takes
  /// one cursor per host (the checkpoint reader checks the count).
  [[nodiscard]] std::vector<std::uint64_t> saveCursors() const {
    std::vector<std::uint64_t> out;
    out.reserve(chains_.size());
    for (const HostChain& c : chains_) {
      out.push_back(c.packedCursor.load(std::memory_order_relaxed));
    }
    return out;
  }
  void restoreCursors(const std::vector<std::uint64_t>& cursors) noexcept {
    for (std::size_t h = 0; h < chains_.size(); ++h) {
      chains_[h].packedCursor.store(cursors[h], std::memory_order_relaxed);
    }
  }

 private:
  /// Decoded cursor: the chain walked to `epoch` with `up` online epochs
  /// in [0, epoch] and state `on` there.
  struct Cursor {
    std::uint32_t epoch = 0;
    std::uint32_t up = 0;
    bool on = false;
  };

  /// Per-host chain parameters plus the forward cursor. The cursor is a
  /// cache only — every answer is a pure function of (seed, host, epoch) —
  /// and makes time-monotone queries O(1) amortized. It is packed into one
  /// relaxed atomic word (31-bit epoch | on bit | 32-bit up-count) so
  /// parallel readers (AVMON's query-time catch-up and epoch fold) may
  /// query concurrently: racing threads each load a whole valid
  /// cursor, recompute the (pure) answer, and store another whole valid
  /// cursor — no torn state, no effect on answers, only possibly
  /// duplicated walk work.
  struct HostChain {
    double pUp = 0.0;
    double pOff = 0.0;
    double qOn = 0.0;
    mutable std::atomic<std::uint64_t> packedCursor{kNoCursor};

    HostChain() = default;
    HostChain(const HostChain& o) noexcept
        : pUp(o.pUp),
          pOff(o.pOff),
          qOn(o.qOn),
          packedCursor(o.packedCursor.load(std::memory_order_relaxed)) {}
    HostChain& operator=(const HostChain& o) noexcept {
      pUp = o.pUp;
      pOff = o.pOff;
      qOn = o.qOn;
      packedCursor.store(o.packedCursor.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
      return *this;
    }
  };
  static constexpr std::uint64_t kNoCursor = ~std::uint64_t{0};
  /// Epoch field width caps the horizon (31 bits ≈ 81k years of 20-minute
  /// epochs); the constructors reject anything larger.
  static constexpr std::size_t kMaxHorizonEpochs = (1u << 31) - 2;

  [[nodiscard]] static std::uint64_t pack(const Cursor& c) noexcept {
    return (static_cast<std::uint64_t>(c.up) << 32) |
           (static_cast<std::uint64_t>(c.on ? 1u : 0u) << 31) |
           static_cast<std::uint64_t>(c.epoch);
  }
  [[nodiscard]] static std::optional<Cursor> load(
      const HostChain& c) noexcept {
    const std::uint64_t v =
        c.packedCursor.load(std::memory_order_relaxed);
    if (v == kNoCursor) return std::nullopt;
    return Cursor{static_cast<std::uint32_t>(v & 0x7FFFFFFFu),
                  static_cast<std::uint32_t>(v >> 32), ((v >> 31) & 1u) != 0};
  }

  void initChains(std::vector<double> pUp, double meanSessionEpochs);
  void checkHorizon() const;
  void checkRange(HostIndex h, std::size_t e) const;
  [[nodiscard]] double drawUniform(std::uint64_t h, std::uint64_t e) const;
  /// State in epoch `k` given the state in `k - 1` (stationary re-draw at
  /// block starts).
  [[nodiscard]] bool nextState(const HostChain& c, std::uint64_t h,
                               std::size_t k, bool prevOn) const;
  /// Stateless state computation: replay from the enclosing block start.
  [[nodiscard]] bool stateAt(const HostChain& c, std::uint64_t h,
                             std::size_t e) const;
  /// Pure forward walk from `from` (or epoch 0 when absent) to epoch `e`;
  /// publishes and returns the resulting cursor.
  Cursor advanceTo(const HostChain& c, std::uint64_t h,
                   std::size_t e) const;

  std::vector<HostChain> chains_;
  std::size_t horizon_ = 0;
  sim::SimDuration epochDuration_ = sim::SimDuration::zero();
  std::uint64_t seed_ = 0;
};

}  // namespace avmem::trace
