#include "trace/overnet_generator.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "trace/markov_churn.hpp"

namespace avmem::trace {

// The on/off chain math (stationary on-fraction a, mean on-run meanOn) is
// shared with the streaming backend: markovRatesFor in markov_churn.hpp.

double sampleIntrinsicAvailability(const OvernetTraceConfig& config,
                                   sim::Rng& rng) {
  const double total = config.lowWeight + config.midWeight +
                       config.highWeight + config.serverWeight;
  if (total <= 0.0) {
    throw std::invalid_argument("OvernetTraceConfig: zero mixture weight");
  }
  double u = rng.uniform() * total;
  if (u < config.lowWeight) {
    return rng.uniform(config.lowMin, config.lowMax);
  }
  u -= config.lowWeight;
  if (u < config.midWeight) {
    return rng.uniform(config.midMin, config.midMax);
  }
  u -= config.midWeight;
  if (u < config.highWeight) {
    return rng.uniform(config.highMin, config.highMax);
  }
  return rng.uniform(config.serverMin, config.serverMax);
}

ChurnTrace generateOvernetTrace(const OvernetTraceConfig& config) {
  return ChurnTrace(generateOvernetTimeline(config), config.epochDuration);
}

std::vector<std::vector<std::uint8_t>> generateOvernetTimeline(
    const OvernetTraceConfig& config) {
  if (config.hosts == 0 || config.epochs == 0) {
    throw std::invalid_argument("OvernetTraceConfig: empty trace");
  }
  sim::Rng root(config.seed);
  sim::Rng mixRng = root.fork("intrinsic-availability");

  const double epochsPerDay =
      sim::SimDuration::days(1).toMicros() /
      static_cast<double>(config.epochDuration.toMicros());

  // Diurnal cycle: the join rate peaks mid-day and dips at night. The swing
  // depends on the epoch alone, so it is tabled once here rather than
  // recomputed in every (host, epoch) cell; empty when the cycle is off.
  std::vector<double> swing;
  if (config.diurnalAmplitude > 0.0 && epochsPerDay > 0.0) {
    swing.resize(config.epochs);
    for (std::uint32_t e = 0; e < config.epochs; ++e) {
      const double phase = 2.0 * std::numbers::pi *
                           (static_cast<double>(e) / epochsPerDay);
      swing[e] = 1.0 + config.diurnalAmplitude * std::sin(phase);
    }
  }

  std::vector<std::vector<std::uint8_t>> timeline(config.hosts);
  for (std::uint32_t h = 0; h < config.hosts; ++h) {
    const double a = sampleIntrinsicAvailability(config, mixRng);
    const MarkovRates rates = markovRatesFor(a, config.meanSessionEpochs);
    sim::Rng rng = root.fork("host-churn", h);

    auto& row = timeline[h];
    row.resize(config.epochs);
    bool on = rng.chance(a);  // start from the stationary distribution
    for (std::uint32_t e = 0; e < config.epochs; ++e) {
      row[e] = on ? 1 : 0;
      const double q =
          swing.empty() ? rates.qOn
                        : std::clamp(rates.qOn * swing[e], 0.0, 1.0);
      if (on) {
        if (rng.chance(rates.pOff)) on = false;
      } else {
        if (rng.chance(q)) on = true;
      }
    }
  }

  return timeline;
}

}  // namespace avmem::trace
