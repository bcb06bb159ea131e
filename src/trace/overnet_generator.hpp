// Synthetic Overnet-like churn traces.
//
// Substitution note (see DESIGN.md): the paper injects the real Overnet
// availability traces of Bhagwan et al. [3] — 1442 hosts, 7 days, 20-minute
// sampling. Those traces are not redistributable, so we synthesize traces
// with the same population size, duration, sampling interval, and the two
// statistics AVMEM actually consumes:
//
//  * a heavily skewed availability marginal ("50% of hosts have a 10-day
//    availability lower than 30%" [3]) — modeled by a three-component
//    mixture of intrinsic host availabilities, plus a small always-on tail;
//  * realistic session dynamics — modeled per host by a two-state Markov
//    chain over epochs whose stationary distribution equals the host's
//    intrinsic availability, with a configurable mean online-session
//    length and an optional diurnal modulation of the join rate.
//
// Every experiment upstream consumes only (who is online per epoch,
// long-term availability per host), so matching these marginals preserves
// the *shape* of the paper's results.
#pragma once

#include <cstdint>

#include "sim/random.hpp"
#include "trace/churn_trace.hpp"

namespace avmem::trace {

/// Parameters for the synthetic Overnet generator.
///
/// Defaults reproduce the paper's trace scale: 1442 hosts, 7 days of
/// 20-minute epochs (504 epochs).
struct OvernetTraceConfig {
  std::uint32_t hosts = 1442;
  std::uint32_t epochs = 7 * 24 * 3;  ///< 7 days at 20-min epochs.
  sim::SimDuration epochDuration = sim::SimDuration::minutes(20);
  std::uint64_t seed = 42;

  // Intrinsic-availability mixture (weights need not be normalized).
  // Component 1: low-availability mass (the freeloader bulk).
  double lowWeight = 0.50;
  double lowMin = 0.02;
  double lowMax = 0.30;
  // Component 2: mid-availability mass.
  double midWeight = 0.30;
  double midMin = 0.30;
  double midMax = 0.70;
  // Component 3: high-availability mass.
  double highWeight = 0.17;
  double highMin = 0.70;
  double highMax = 0.98;
  // Component 4: near-always-on servers.
  double serverWeight = 0.03;
  double serverMin = 0.98;
  double serverMax = 1.00;

  /// Mean online-session length in epochs (Overnet sessions are short;
  /// 3 epochs = 1 hour mean).
  double meanSessionEpochs = 3.0;

  /// Amplitude of the diurnal modulation of the join rate, in [0, 1).
  /// 0 disables the day/night cycle.
  double diurnalAmplitude = 0.25;
};

/// Generate a synthetic churn trace. Deterministic in `config.seed`.
[[nodiscard]] ChurnTrace generateOvernetTrace(const OvernetTraceConfig& config);

/// Generate the raw per-host byte timeline (`timeline[h][e]` is host h's
/// online flag in epoch e): the matrix ChurnTrace packs. Identical bits to
/// generateOvernetTrace for the same config.
[[nodiscard]] std::vector<std::vector<std::uint8_t>> generateOvernetTimeline(
    const OvernetTraceConfig& config);

/// Draw a single intrinsic availability from the configured mixture.
/// Exposed for tests and for building availability PDFs without a trace.
[[nodiscard]] double sampleIntrinsicAvailability(
    const OvernetTraceConfig& config, sim::Rng& rng);

}  // namespace avmem::trace
