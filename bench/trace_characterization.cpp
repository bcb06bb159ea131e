// Characterization of the synthetic Overnet trace against the published
// measurements it substitutes for (Bhagwan et al. [3]; see DESIGN.md's
// substitution table).
//
// Reported: availability marginal (headline: ~50% of hosts below 0.3),
// session/absence length distributions, online population, and the
// diurnal swing. Runs against any AvailabilityModel backend
// (AVMEM_TRACE_BACKEND=recorded|markov) — the recorded backend packs
// exactly the generator's timeline; the streaming Markov backend shows
// the same availability marginal with a flat diurnal profile (the
// generative model omits the day/night modulation).
#include "bench/fig_common.hpp"

#include <memory>

#include "trace/overnet_generator.hpp"
#include "trace/trace_stats.hpp"

int main() {
  using namespace avmem;
  using namespace avmem::benchfig;

  const BenchEnv env = BenchEnv::fromEnv();
  printHeader("Trace", "synthetic Overnet trace characterization",
              "Bhagwan et al.: ~50% of hosts below 0.3 availability; "
              "short sessions; diurnal cycle",
              env);

  trace::OvernetTraceConfig cfg;
  cfg.hosts = env.hosts;
  cfg.seed = env.seed;

  const core::TraceBackend backend =
      traceBackendFromEnv("trace_characterization")
          .value_or(core::TraceBackend::kRecorded);
  const std::unique_ptr<trace::AvailabilityModel> model =
      core::makeTraceModel(backend, cfg);
  std::cout << "# availability backend: " << core::traceBackendName(backend)
            << ", model memory "
            << static_cast<double>(model->memoryFootprintBytes()) /
                   (1024.0 * 1024.0)
            << " MiB\n";
  const auto s = trace::characterizeTrace(*model);

  std::cout << "# availability marginal (fraction of hosts per bin)\n";
  stats::TablePrinter marginal({"availability", "fraction_of_hosts"});
  for (std::size_t b = 0; b < s.availabilityMarginal.binCount(); ++b) {
    marginal.addRow({s.availabilityMarginal.binMid(b),
                     s.availabilityMarginal.fraction(b)});
  }
  marginal.print(std::cout, 3);

  std::cout << "# headline: fraction below 0.3 = " << s.fractionBelow03
            << " (target ~0.5)\n";

  std::cout << "# session lengths (epochs; 1 epoch = 20 min)\n";
  stats::printCdfCompact(std::cout, "online sessions", s.sessionEpochs, 10);
  stats::printCdfCompact(std::cout, "offline absences", s.absenceEpochs, 10);

  std::cout << "# online population: mean " << s.onlinePerEpoch.mean()
            << ", min " << s.onlinePerEpoch.min() << ", max "
            << s.onlinePerEpoch.max() << " of " << cfg.hosts << " hosts\n";
  std::cout << "# diurnal swing (peak/trough online fraction): "
            << s.diurnalSwing() << "\n";
  return 0;
}
