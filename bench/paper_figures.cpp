// The paper's Section 4 figures (2-13), three ablations and Section 3.1's
// overhead analysis, as one table of rows.
//
//   paper_figures [name...]
//
// Runs the named rows, or every row in table order when no name is given;
// an unknown name exits 2 and lists the names. Each row prints the
// rows/series its figure plots on stdout; progress goes to stderr.
// AVMEM_FAST=1 selects the smoke scale (bench/fig_common.hpp reads the
// environment).
//
// Rows share warm worlds: the first row that asks for a config warms it
// and keeps its checkpoint in memory; every later request for the same
// config restores that checkpoint instead of warming again, which the
// checkpoint contract makes bit-identical to a fresh warm-up.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/fig_common.hpp"
#include "bench/multicast_scenarios.hpp"
#include "core/attack.hpp"
#include "snapshot/checkpoint.hpp"

namespace {

using namespace avmem;
using namespace avmem::benchfig;
using core::AnycastStrategy;
using core::AvmemSimulation;
using core::SliverSet;

/// The paper's default experimental system, via the scenario registry,
/// with the environment overrides applied.
core::SimulationConfig defaultConfig(
    const BenchEnv& env,
    core::PredicateChoice predicate = core::PredicateChoice::kPaperDefault) {
  auto scenario = core::makeScenario("paper-default", env.scenarioTuning());
  scenario.config.predicate = predicate;
  applyEnvOverrides(scenario.config, "paper_figures");
  return scenario.config;
}

/// Warm worlds, one per distinct config fingerprint (which covers every
/// result-determining field).
class Worlds {
 public:
  explicit Worlds(sim::SimDuration warmup) : warmup_(warmup) {}

  /// A warm system for `cfg`. The first request warms it and saves its
  /// checkpoint before anything else runs on it; later requests restore
  /// that checkpoint into a fresh system.
  [[nodiscard]] std::unique_ptr<AvmemSimulation> get(
      const core::SimulationConfig& cfg) {
    std::cerr << "building system: " << cfg.trace.hosts << " hosts, seed "
              << cfg.seed << "\n";
    auto system = std::make_unique<AvmemSimulation>(cfg);
    std::cerr << "predicate: " << system->predicate().name() << "\n";
    const std::uint64_t key = snapshot::configFingerprint(cfg);
    const auto saved =
        std::find_if(saved_.begin(), saved_.end(),
                     [key](const auto& world) { return world.first == key; });
    if (saved != saved_.end()) {
      std::cerr << "restoring warm state " << std::hex << key << std::dec
                << "...\n";
      std::istringstream in(saved->second);
      system->restoreCheckpoint(in);
    } else {
      std::cerr << "warming up " << warmup_.toString() << " simulated...\n";
      system->warmup(warmup_);
      std::ostringstream out;
      system->saveCheckpoint(out);
      saved_.emplace_back(key, std::move(out).str());
    }
    std::cerr << "online nodes: " << system->onlineNodes().size() << " / "
              << system->nodeCount() << "\n";
    return system;
  }

 private:
  sim::SimDuration warmup_;
  std::vector<std::pair<std::uint64_t, std::string>> saved_;
};

// --- shared measurements ----------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// The results of env.runsPerPoint batches of env.messagesPerPoint
/// anycasts from `band`, in run order.
core::AnycastBatchResult anycastRuns(AvmemSimulation& system,
                                     const BenchEnv& env, core::AvBand band,
                                     const core::AnycastParams& params) {
  core::AnycastBatchResult all;
  for (std::size_t run = 0; run < env.runsPerPoint; ++run) {
    auto batch = system.runAnycastBatch(band, params, env.messagesPerPoint);
    all.results.insert(all.results.end(), batch.results.begin(),
                       batch.results.end());
  }
  return all;
}

/// A verification probe per online node, at cushion 0 and cushion 0.1,
/// binned by the probing node's availability into 10 bands. Nodes whose
/// cushion-0 probe reaches no target are skipped.
struct CushionBands {
  static constexpr int kBands = 10;
  std::vector<double> cushion0 = std::vector<double>(kBands, 0.0);
  std::vector<double> cushion01 = std::vector<double>(kBands, 0.0);
  std::vector<int> counts = std::vector<int>(kBands, 0);
};

CushionBands cushionBands(
    AvmemSimulation& system,
    core::VerificationSweep (*probe)(AvmemSimulation&, net::NodeIndex),
    double (core::VerificationSweep::*fraction)() const noexcept) {
  CushionBands bands;
  for (const auto node : system.onlineNodes()) {
    const double av = system.trueAvailability(node);
    const int band = std::min(static_cast<int>(av * CushionBands::kBands),
                              CushionBands::kBands - 1);

    system.setCushion(0.0);
    const auto strict = probe(system, node);
    system.setCushion(0.1);
    const auto relaxed = probe(system, node);
    system.setCushion(0.0);

    if (strict.targets == 0) continue;
    bands.cushion0[band] += (strict.*fraction)();
    bands.cushion01[band] += (relaxed.*fraction)();
    ++bands.counts[band];
  }
  return bands;
}

/// The Figure-9 workload (retried-greedy, HIGH -> [0.15, 0.25]) at retry
/// budgets {2, 4, 8, 16}.
void printRetriedGreedy(AvmemSimulation& system, const BenchEnv& env) {
  stats::TablePrinter table({"retries", "fraction_delivered",
                             "fraction_ttl_expired", "fraction_retry_expired",
                             "avg_delivery_latency_ms"});
  for (const int retry : std::array<int, 4>{2, 4, 8, 16}) {
    core::AnycastParams params;
    params.range = core::AvRange::closed(0.15, 0.25);
    params.strategy = AnycastStrategy::kRetriedGreedy;
    params.slivers = SliverSet::kHsAndVs;
    params.retryBudget = retry;

    std::size_t total = 0;
    std::size_t delivered = 0;
    std::size_t ttl = 0;
    std::size_t retryExp = 0;
    double latencySum = 0.0;
    const auto runs = anycastRuns(system, env, core::AvBand::high(), params);
    for (const auto& r : runs.results) {
      ++total;
      switch (r.outcome) {
        case core::AnycastOutcome::kDelivered:
          ++delivered;
          latencySum += r.latency.toMillis();
          break;
        case core::AnycastOutcome::kTtlExpired:
          ++ttl;
          break;
        case core::AnycastOutcome::kRetryExpired:
        case core::AnycastOutcome::kNoNeighbor:
          ++retryExp;
          break;
        default:
          break;
      }
    }
    const auto frac = [total](std::size_t n) {
      return total ? static_cast<double>(n) / static_cast<double>(total)
                   : 0.0;
    };
    table.addRow({static_cast<double>(retry), frac(delivered), frac(ttl),
                  frac(retryExp),
                  delivered ? latencySum / static_cast<double>(delivered)
                            : 0.0});
  }
  table.print(std::cout, 3);
}

/// env.messagesPerPoint / 2 multicasts of each paper scenario; `sample`
/// adds a result's value to the scenario's CDF (or skips the result).
std::vector<stats::EmpiricalCdf> multicastCdfs(
    AvmemSimulation& system, const BenchEnv& env,
    const std::function<void(const core::MulticastResult&,
                             stats::EmpiricalCdf&)>& sample) {
  std::vector<stats::EmpiricalCdf> cdfs;
  for (const auto& scenario : paperMulticastScenarios()) {
    stats::EmpiricalCdf& cdf = cdfs.emplace_back();
    runScenario(system, scenario, env.messagesPerPoint / 2,
                [&](const core::MulticastResult& r) { sample(r, cdf); });
  }
  return cdfs;
}

// --- rows -------------------------------------------------------------------

// Figure 2: snapshot of online nodes after the warm-up — the availability
// distribution, and horizontal/vertical-sliver sizes per availability bin.
void fig02(const BenchEnv& env, Worlds& worlds) {
  auto system = worlds.get(defaultConfig(env));
  printHeader("Figure 2", "overlay snapshot after warm-up",
              "skewed online distribution; HS grows with availability; "
              "VS uncorrelated",
              env);

  // Per-0.05 availability bin: online count, HS/VS size stats.
  constexpr int kBins = 20;
  std::vector<int> online(kBins, 0);
  std::vector<std::vector<double>> hs(kBins);
  std::vector<std::vector<double>> vs(kBins);
  for (const auto i : system->onlineNodes()) {
    const double av = system->trueAvailability(i);
    const int bin = std::min(static_cast<int>(av * kBins), kBins - 1);
    ++online[bin];
    hs[bin].push_back(static_cast<double>(
        system->node(i).horizontalSliver().size()));
    vs[bin].push_back(static_cast<double>(
        system->node(i).verticalSliver().size()));
  }

  stats::TablePrinter table({"availability", "online_nodes", "hs_median",
                             "hs_max", "vs_median", "vs_max"});
  for (int b = 0; b < kBins; ++b) {
    const double mid = (b + 0.5) / kBins;
    double hsMax = 0.0;
    double vsMax = 0.0;
    for (const double v : hs[b]) hsMax = std::max(hsMax, v);
    for (const double v : vs[b]) vsMax = std::max(vsMax, v);
    table.addRow({mid, static_cast<double>(online[b]), median(hs[b]), hsMax,
                  median(vs[b]), vsMax});
  }
  table.print(std::cout, 2);

  std::vector<double> allVsLow;
  std::vector<double> allVsHigh;
  for (int b = 0; b < kBins / 2; ++b) {
    allVsLow.insert(allVsLow.end(), vs[b].begin(), vs[b].end());
  }
  for (int b = kBins / 2; b < kBins; ++b) {
    allVsHigh.insert(allVsHigh.end(), vs[b].begin(), vs[b].end());
  }
  std::cout << "# summary: vs_median low-half=" << median(allVsLow)
            << " high-half=" << median(allVsHigh)
            << " (uncorrelated expected)\n";
}

// Figure 3: horizontal-sliver size vs the number of candidate nodes within
// +-eps availability.
void fig03(const BenchEnv& env, Worlds& worlds) {
  auto system = worlds.get(defaultConfig(env));
  const double eps = system->predicate().epsilon();
  printHeader("Figure 3", "horizontal sliver scaling",
              "HS size grows sublinearly with the +-eps candidate count",
              env);

  // For each online node: candidates = online nodes within +-eps of it.
  const auto online = system->onlineNodes();
  struct Point {
    int candidates;
    int hsSize;
  };
  std::vector<Point> points;
  for (const auto i : online) {
    const double av = system->trueAvailability(i);
    int candidates = 0;
    for (const auto j : online) {
      if (j != i && std::abs(system->trueAvailability(j) - av) < eps) {
        ++candidates;
      }
    }
    points.push_back(
        {candidates,
         static_cast<int>(system->node(i).horizontalSliver().size())});
  }

  // Bin by candidate count (width 25, like the figure's x-axis density).
  constexpr int kWidth = 25;
  const int maxC =
      std::max_element(points.begin(), points.end(),
                       [](const Point& a, const Point& b) {
                         return a.candidates < b.candidates;
                       })
          ->candidates;
  stats::TablePrinter table(
      {"candidates_mid", "nodes", "hs_mean", "hs_per_candidate"});
  std::vector<double> logX;
  std::vector<double> logY;
  for (int lo = 0; lo <= maxC; lo += kWidth) {
    double sum = 0.0;
    int n = 0;
    for (const auto& p : points) {
      if (p.candidates >= lo && p.candidates < lo + kWidth) {
        sum += p.hsSize;
        ++n;
      }
    }
    if (n == 0) continue;
    const double mean = sum / n;
    const double mid = lo + kWidth / 2.0;
    table.addRow({mid, static_cast<double>(n), mean, mean / mid});
    // Sublinearity fit over well-populated, well-converged bins only:
    // sparse-candidate bins are dominated by rarely-online (low-
    // availability) nodes whose discovery has run for only a handful of
    // rounds, so their HS lists sit far below the predicate's steady
    // state and say nothing about the predicate's scaling.
    if (n >= 20 && mid >= 75.0 && mean > 0.0) {
      logX.push_back(std::log(mid));
      logY.push_back(std::log(mean));
    }
  }
  table.print(std::cout, 3);

  // Least-squares slope of log(hs) vs log(candidates): < 1 => sublinear.
  // Fewer than 3 qualifying bins cannot support a fit.
  if (logX.size() < 3) {
    std::cout << "# summary: log-log growth exponent = insufficient ("
              << logX.size() << " bins)\n";
    return;
  }
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < logX.size(); ++i) {
    mx += logX[i];
    my += logY[i];
  }
  mx /= static_cast<double>(logX.size());
  my /= static_cast<double>(logX.size());
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < logX.size(); ++i) {
    num += (logX[i] - mx) * (logY[i] - my);
    den += (logX[i] - mx) * (logX[i] - mx);
  }
  // The bins' midpoints are distinct, so den > 0.
  const double slope = num / den;
  std::cout << "# summary: log-log growth exponent = " << slope
            << " (sublinear requires < 1: "
            << (slope < 1.0 ? "OK" : "VIOLATED") << ")\n";
}

// Figure 4: incoming vertical-sliver links per 0.1-wide availability range
// (Theorem 1's uniform coverage, observed from the receiving side).
void fig04(const BenchEnv& env, Worlds& worlds) {
  auto system = worlds.get(defaultConfig(env));
  printHeader("Figure 4", "incoming vertical-sliver link distribution",
              "incoming VS links per 0.1 range are uniform despite the "
              "skewed node distribution",
              env);

  constexpr int kRanges = 10;
  std::vector<int> incoming(kRanges, 0);
  std::vector<int> population(kRanges, 0);
  const auto online = system->onlineNodes();
  for (const auto i : online) {
    const double av = system->trueAvailability(i);
    ++population[std::min(static_cast<int>(av * kRanges), kRanges - 1)];
  }
  for (const auto i : online) {
    for (const auto& e : system->node(i).verticalSliver().snapshot()) {
      const double targetAv = system->trueAvailability(e.peer);
      ++incoming[std::min(static_cast<int>(targetAv * kRanges), kRanges - 1)];
    }
  }

  stats::TablePrinter table(
      {"range_lo", "range_hi", "online_nodes", "incoming_vs_links"});
  for (int r = 0; r < kRanges; ++r) {
    table.addRow({r / 10.0, (r + 1) / 10.0,
                  static_cast<double>(population[r]),
                  static_cast<double>(incoming[r])});
  }
  table.print(std::cout, 2);

  // Uniformity over populated ranges (ranges with almost no nodes are
  // skewed by quantization, as the paper notes for [0, 0.1]).
  int lo = 1 << 30;
  int hi = 0;
  for (int r = 0; r < kRanges; ++r) {
    if (population[r] < 5) continue;
    lo = std::min(lo, incoming[r]);
    hi = std::max(hi, incoming[r]);
  }
  std::cout << "# summary: populated-range incoming spread = "
            << (lo > 0 ? static_cast<double>(hi) / lo : 0.0)
            << "x (1.0 = perfectly uniform)\n";
}

// Figure 5: flooding attack — the fraction of non-neighbor peers that
// would accept a selfish node's message, vs its availability ("to receive
// an audience from one additional peer, a selfish node must obtain
// information about 10 additional peers").
void fig05(const BenchEnv& env, Worlds& worlds) {
  auto system = worlds.get(defaultConfig(env));
  printHeader("Figure 5", "flooding attack acceptance",
              "<10% of non-neighbors accept, at every attacker availability",
              env);

  const CushionBands bands =
      cushionBands(*system, core::floodingAttack,
                   &core::VerificationSweep::acceptFraction);
  stats::TablePrinter table({"attacker_availability", "attackers",
                             "accept_cushion_0", "accept_cushion_0.1"});
  double worst = 0.0;
  for (int b = 0; b < CushionBands::kBands; ++b) {
    if (bands.counts[b] == 0) continue;
    const double a0 = bands.cushion0[b] / bands.counts[b];
    const double a1 = bands.cushion01[b] / bands.counts[b];
    worst = std::max(worst, a0);
    table.addRow({(b + 0.5) / CushionBands::kBands,
                  static_cast<double>(bands.counts[b]), a0, a1});
  }
  table.print(std::cout, 4);
  std::cout << "# summary: worst per-band acceptance (cushion 0) = " << worst
            << " (paper: < 0.10)\n";
}

// Figure 6: legitimate rejection — the fraction of a node's in-neighbors
// that wrongly reject its messages, vs its availability ("a node
// attempting to forward a message will have to try only an expected
// 1/0.8 = 1.25 neighbors before succeeding").
void fig06(const BenchEnv& env, Worlds& worlds) {
  auto system = worlds.get(defaultConfig(env));
  printHeader("Figure 6", "legitimate rejection rate",
              "<30% rejection at cushion 0, <20% at cushion 0.1",
              env);

  const CushionBands bands =
      cushionBands(*system, core::legitimateTraffic,
                   &core::VerificationSweep::rejectFraction);
  stats::TablePrinter table({"sender_availability", "senders",
                             "reject_cushion_0", "reject_cushion_0.1"});
  double worst0 = 0.0;
  double worst1 = 0.0;
  for (int b = 0; b < CushionBands::kBands; ++b) {
    if (bands.counts[b] == 0) continue;
    const double r0 = bands.cushion0[b] / bands.counts[b];
    const double r1 = bands.cushion01[b] / bands.counts[b];
    worst0 = std::max(worst0, r0);
    worst1 = std::max(worst1, r1);
    table.addRow({(b + 0.5) / CushionBands::kBands,
                  static_cast<double>(bands.counts[b]), r0, r1});
  }
  table.print(std::cout, 4);
  std::cout << "# summary: worst rejection cushion0=" << worst0
            << " (paper <0.30), cushion0.1=" << worst1
            << " (paper <0.20)\n";
}

// Figure 7: range-anycast hop distribution, MID initiators to
// [0.85, 0.95].
//
// Deviation: the sliver variants use retried-greedy forwarding rather
// than plain greedy. The paper's 100% greedy success implies its senders
// did not lose messages to offline next-hops; our plain greedy is
// fire-and-forget (a dead next-hop kills the message), so the per-hop
// retry is needed to reach the same success regime. Hop-count
// distributions are unaffected (retries happen within a hop).
void fig07(const BenchEnv& env, Worlds& worlds) {
  auto system = worlds.get(defaultConfig(env));
  printHeader("Figure 7", "range-anycast hops, MID -> [0.85, 0.95]",
              "100% success; <=1 hop w.h.p. except HS-only",
              env);

  struct Variant {
    const char* name;
    AnycastStrategy strategy;
    SliverSet slivers;
  };
  const std::array<Variant, 4> variants = {
      Variant{"VS-only", AnycastStrategy::kRetriedGreedy, SliverSet::kVsOnly},
      Variant{"HS+VS", AnycastStrategy::kRetriedGreedy, SliverSet::kHsAndVs},
      Variant{"HS-only", AnycastStrategy::kRetriedGreedy, SliverSet::kHsOnly},
      Variant{"sim-annealing", AnycastStrategy::kSimulatedAnnealing,
              SliverSet::kHsAndVs},
  };

  stats::TablePrinter table({"variant_idx", "hops", "fraction_of_delivered"});
  int vIdx = 0;
  for (const auto& v : variants) {
    core::AnycastParams params;
    params.range = core::AvRange::closed(0.85, 0.95);
    params.strategy = v.strategy;
    params.slivers = v.slivers;

    std::vector<int> hopCounts(params.ttl + 2, 0);
    std::size_t delivered = 0;
    const auto runs = anycastRuns(*system, env, core::AvBand::mid(), params);
    for (const auto& r : runs.results) {
      // Hop histograms are over *delivered* operations only: dropped ops
      // report the hops = -1 sentinel (the watchdog settled them), and
      // ttl/retry-expired hop counts mean "where the message died", not
      // a delivery length.
      if (r.outcome != core::AnycastOutcome::kDelivered) continue;
      ++delivered;
      ++hopCounts[std::min<std::size_t>(r.hops, hopCounts.size() - 1)];
    }

    std::cout << "# variant " << vIdx << " = " << v.name << ": delivered "
              << delivered << "/" << runs.count() << "\n";
    for (std::size_t h = 0; h < hopCounts.size(); ++h) {
      if (hopCounts[h] == 0) continue;
      table.addRow({static_cast<double>(vIdx), static_cast<double>(h),
                    static_cast<double>(hopCounts[h]) /
                        static_cast<double>(delivered)});
    }
    ++vIdx;
  }
  table.print(std::cout, 3);
}

// Figure 8: range-anycast delivery from HIGH initiators to increasingly
// sparse target ranges (paths may die inside the overlay as TTL expires).
void fig08(const BenchEnv& env, Worlds& worlds) {
  auto system = worlds.get(defaultConfig(env));
  printHeader("Figure 8", "range-anycast delivery, HIGH -> harsh targets",
              "success degrades toward low ranges; HS+VS best",
              env);

  struct Variant {
    AnycastStrategy strategy;
    SliverSet slivers;
  };
  const std::array<Variant, 4> variants = {
      Variant{AnycastStrategy::kSimulatedAnnealing, SliverSet::kHsAndVs},
      Variant{AnycastStrategy::kGreedy, SliverSet::kHsAndVs},
      Variant{AnycastStrategy::kGreedy, SliverSet::kVsOnly},
      Variant{AnycastStrategy::kGreedy, SliverSet::kHsOnly},
  };
  const std::array<core::AvRange, 3> targets = {
      core::AvRange::closed(0.85, 0.95),
      core::AvRange::closed(0.44, 0.54),
      core::AvRange::closed(0.15, 0.25),
  };

  stats::TablePrinter table(
      {"target_lo", "target_hi", "variant_idx", "delivered_fraction"});
  for (const auto& target : targets) {
    for (std::size_t v = 0; v < variants.size(); ++v) {
      core::AnycastParams params;
      params.range = target;
      params.strategy = variants[v].strategy;
      params.slivers = variants[v].slivers;
      table.addRow(
          {target.lo, target.hi, static_cast<double>(v),
           anycastRuns(*system, env, core::AvBand::high(), params)
               .deliveredFraction()});
    }
  }
  std::cout << "# variants: 0=sim-annealing 1=HS+VS 2=VS-only 3=HS-only\n";
  table.print(std::cout, 3);
}

// Figure 9: retried-greedy anycast in the harshest scenario, by retry
// budget; the remainder splits between TTL expiry and retry exhaustion.
void fig09(const BenchEnv& env, Worlds& worlds) {
  auto system = worlds.get(defaultConfig(env));
  printHeader("Figure 9", "retried-greedy anycast, HIGH -> [0.15, 0.25]",
              "delivery plateaus near retry=8 (~60%, ~739 ms avg latency)",
              env);
  printRetriedGreedy(*system, env);
}

// Figure 10: the Figure-9 workload over the availability-agnostic
// comparator, a random graph at SCAMP's (1 + c) * log(N) list sizing with
// edges drawn uniformly over the whole population (ablation_baselines
// adds a CYCLON coarse-view overlay and a degree-matched random graph).
void fig10(const BenchEnv& env, Worlds& worlds) {
  auto system = worlds.get(
      defaultConfig(env, core::PredicateChoice::kRandomOverlay));
  printHeader("Figure 10",
              "retried-greedy anycast over a random overlay, "
              "HIGH -> [0.15, 0.25]",
              "lower success than AVMEM (Figure 9), similar latency",
              env);
  printRetriedGreedy(*system, env);
}

// Figure 11: multicast worst-case latency CDF (the time of the last node
// to receive each multicast).
void fig11(const BenchEnv& env, Worlds& worlds) {
  auto system = worlds.get(defaultConfig(env));
  printHeader("Figure 11", "multicast last-delivery latency CDF",
              "flooding < ~300 ms; gossip < ~5.5 s",
              env);
  const auto cdfs = multicastCdfs(
      *system, env,
      [](const core::MulticastResult& r, stats::EmpiricalCdf& cdf) {
        if (r.delivered > 0) cdf.add(r.lastDeliveryLatency.toMillis());
      });
  const auto scenarios = paperMulticastScenarios();
  for (std::size_t s = 0; s < cdfs.size(); ++s) {
    stats::printCdfCompact(std::cout,
                           scenarios[s].name + " (last delivery, ms)",
                           cdfs[s], 10);
  }
}

// Figure 12: multicast spam-ratio CDF — out-of-range receivers divided by
// the in-range population; the narrow [0.85, 0.95] range is skewed by its
// small population.
void fig12(const BenchEnv& env, Worlds& worlds) {
  auto system = worlds.get(defaultConfig(env));
  printHeader("Figure 12", "multicast spam-ratio CDF",
              "spam ratio < ~8% for most cases",
              env);
  const auto cdfs = multicastCdfs(
      *system, env,
      [](const core::MulticastResult& r, stats::EmpiricalCdf& cdf) {
        if (r.reachedRange) cdf.add(r.spamRatio());
      });
  const auto scenarios = paperMulticastScenarios();
  double worstMedian = 0.0;
  for (std::size_t s = 0; s < cdfs.size(); ++s) {
    stats::printCdfCompact(std::cout, scenarios[s].name + " (spam ratio)",
                           cdfs[s], 10);
    if (!cdfs[s].empty()) worstMedian = std::max(worstMedian, cdfs[s].median());
  }
  std::cout << "# summary: worst scenario median spam ratio = " << worstMedian
            << "\n";
}

// Figure 13: multicast reliability CDF — the fraction of the in-range
// online population that received each multicast (gossip is cheaper but
// less reliable).
void fig13(const BenchEnv& env, Worlds& worlds) {
  auto system = worlds.get(defaultConfig(env));
  printHeader("Figure 13", "multicast reliability CDF",
              "flooding > ~90%; gossip ~70%",
              env);
  const auto cdfs = multicastCdfs(
      *system, env,
      [](const core::MulticastResult& r, stats::EmpiricalCdf& cdf) {
        if (r.eligible > 0) cdf.add(r.reliability());
      });
  const auto scenarios = paperMulticastScenarios();
  for (std::size_t s = 0; s < cdfs.size(); ++s) {
    stats::printCdfCompact(std::cout, scenarios[s].name + " (reliability)",
                           cdfs[s], 10);
    if (!cdfs[s].empty()) {
      std::cout << "# " << scenarios[s].name << ": median "
                << cdfs[s].median() << ", mean " << cdfs[s].mean() << "\n";
    }
  }
}

// Ablation: how much of AVMEM's routing advantage comes from
// availability-aware neighbor placement vs consistency vs list size? Four
// overlays run the Figure-9 workload at retry = 8:
//   avmem          — the paper-default predicate (I.B + II.B)
//   random-scamp   — static consistent-random graph, SCAMP-sized lists
//   random-matched — static consistent-random graph, degree-matched to
//                    AVMEM's realized online degree
//   coarse-view    — the raw CYCLON shuffled view as the membership list
//                    (availability-agnostic, online-biased)
void ablationBaselines(const BenchEnv& env, Worlds& worlds) {
  printHeader("Ablation", "overlay baselines on the Figure-9 workload",
              "AVMEM > SCAMP-sized random; degree-matched random closes "
              "most of the gap",
              env);

  struct Row {
    double delivered;
    double latencyMs;
    double meanDegree;
  };
  const auto runBaseline = [&](const core::SimulationConfig& cfg) {
    auto system = worlds.get(cfg);
    double degree = 0.0;
    std::size_t n = 0;
    for (const auto i : system->onlineNodes()) {
      degree += static_cast<double>(system->node(i).degree());
      ++n;
    }
    degree = n ? degree / static_cast<double>(n) : 0.0;

    core::AnycastParams params;
    params.range = core::AvRange::closed(0.15, 0.25);
    params.strategy = AnycastStrategy::kRetriedGreedy;
    params.retryBudget = 8;
    const auto runs = anycastRuns(*system, env, core::AvBand::high(), params);
    std::size_t delivered = 0;
    double latency = 0.0;
    for (const auto& r : runs.results) {
      if (r.outcome == core::AnycastOutcome::kDelivered) {
        ++delivered;
        latency += r.latency.toMillis();
      }
    }
    return Row{runs.deliveredFraction(),
               delivered ? latency / static_cast<double>(delivered) : 0.0,
               degree};
  };

  std::vector<Row> rows;
  rows.push_back(runBaseline(defaultConfig(env)));
  rows.push_back(runBaseline(
      defaultConfig(env, core::PredicateChoice::kRandomOverlay)));
  {
    auto cfg = defaultConfig(env, core::PredicateChoice::kRandomOverlay);
    // Degree-matched: AVMEM's realized online degree (the avmem row's
    // mean) as a pairwise probability over the population.
    cfg.randomOverlayP = rows[0].meanDegree / static_cast<double>(env.hosts);
    rows.push_back(runBaseline(cfg));
  }
  {
    auto cfg = defaultConfig(env);
    cfg.useCoarseViewOverlay = true;
    rows.push_back(runBaseline(cfg));
  }

  std::cout << "# rows: 0=avmem 1=random-scamp 2=random-matched "
               "3=coarse-view\n";
  stats::TablePrinter table(
      {"overlay_idx", "mean_online_degree", "delivered_fraction",
       "avg_latency_ms"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    table.addRow({static_cast<double>(i), rows[i].meanDegree,
                  rows[i].delivered, rows[i].latencyMs});
  }
  table.print(std::cout, 3);
}

// Ablation: the two knobs the paper fixes by fiat. Epsilon (the
// horizontal-sliver half-width, "0.1 suffices") is swept with HS/VS sizes
// and the easy-anycast delivery rate; cushion (the verification slack,
// {0, 0.1} in Figures 5-6) is swept over 0..0.25 for the attack-surface vs
// false-rejection trade-off.
void ablationEpsilonCushion(const BenchEnv& env, Worlds& worlds) {
  printHeader("Ablation", "epsilon and cushion sweeps",
              "paper fixes eps=0.1 and evaluates cushion in {0, 0.1}",
              env);

  std::cout << "# epsilon sweep\n";
  stats::TablePrinter epsTable(
      {"epsilon", "hs_mean", "vs_mean", "easy_delivered"});
  for (const double eps : std::array<double, 3>{0.05, 0.1, 0.2}) {
    auto cfg = defaultConfig(env);
    cfg.protocol.epsilon = eps;
    auto system = worlds.get(cfg);

    double hs = 0.0;
    double vs = 0.0;
    std::size_t n = 0;
    for (const auto i : system->onlineNodes()) {
      hs += static_cast<double>(system->node(i).horizontalSliver().size());
      vs += static_cast<double>(system->node(i).verticalSliver().size());
      ++n;
    }
    if (n > 0) {
      hs /= static_cast<double>(n);
      vs /= static_cast<double>(n);
    }

    core::AnycastParams params;
    params.range = core::AvRange::closed(0.85, 0.95);
    params.strategy = AnycastStrategy::kRetriedGreedy;
    const auto batch = system->runAnycastBatch(core::AvBand::mid(), params,
                                               env.messagesPerPoint);
    epsTable.addRow({eps, hs, vs, batch.deliveredFraction()});
  }
  epsTable.print(std::cout, 3);

  std::cout << "# cushion sweep (single warmed system)\n";
  auto system = worlds.get(defaultConfig(env));
  stats::TablePrinter cushionTable(
      {"cushion", "flood_acceptance", "legit_rejection"});
  for (const double cushion :
       std::array<double, 6>{0.0, 0.05, 0.1, 0.15, 0.2, 0.25}) {
    system->setCushion(cushion);
    double accept = 0.0;
    double reject = 0.0;
    std::size_t nA = 0;
    std::size_t nR = 0;
    for (const auto i : system->onlineNodes()) {
      const auto atk = core::floodingAttack(*system, i);
      if (atk.targets > 0) {
        accept += atk.acceptFraction();
        ++nA;
      }
      const auto legit = core::legitimateTraffic(*system, i);
      if (legit.targets > 0) {
        reject += legit.rejectFraction();
        ++nR;
      }
    }
    cushionTable.addRow({cushion, nA ? accept / nA : 0.0,
                         nR ? reject / nR : 0.0});
  }
  system->setCushion(0.0);
  cushionTable.print(std::cout, 4);
}

// Ablation: the predicate family. The paper defines the
// logarithmic-decreasing vertical sliver (I.C) and the constant slivers
// (I.A + II.A) but evaluates only I.B + II.B; this runs all three: degree
// by availability band plus the easy (Figure-7) and harsh (Figure-9)
// anycast workloads.
void ablationPredicates(const BenchEnv& env, Worlds& worlds) {
  printHeader("Ablation", "predicate family end-to-end",
              "I.C and I.A+II.A are defined but not evaluated in the paper",
              env);

  const core::PredicateChoice choices[3] = {
      core::PredicateChoice::kPaperDefault,
      core::PredicateChoice::kLogDecreasing,
      core::PredicateChoice::kConstantSlivers,
  };
  std::cout << "# rows: 0=I.B+II.B(default) 1=I.C+II.B(log-decreasing) "
               "2=I.A+II.A(constant)\n";
  stats::TablePrinter table({"predicate_idx", "deg_LOW", "deg_MID",
                             "deg_HIGH", "easy_delivered",
                             "harsh_delivered"});
  for (int c = 0; c < 3; ++c) {
    auto system = worlds.get(defaultConfig(env, choices[c]));

    double deg[3] = {0, 0, 0};
    std::size_t cnt[3] = {0, 0, 0};
    for (const auto i : system->onlineNodes()) {
      const double av = system->trueAvailability(i);
      const int band = av < 1.0 / 3 ? 0 : (av < 2.0 / 3 ? 1 : 2);
      deg[band] += static_cast<double>(system->node(i).degree());
      ++cnt[band];
    }
    for (int b = 0; b < 3; ++b) {
      deg[b] = cnt[b] ? deg[b] / static_cast<double>(cnt[b]) : 0.0;
    }

    const auto delivered = [&](core::AvBand band, core::AvRange range) {
      core::AnycastParams params;
      params.range = range;
      params.strategy = AnycastStrategy::kRetriedGreedy;
      params.retryBudget = 8;
      return anycastRuns(*system, env, band, params).deliveredFraction();
    };
    const double easy =
        delivered(core::AvBand::mid(), core::AvRange::closed(0.85, 0.95));
    const double harsh =
        delivered(core::AvBand::high(), core::AvRange::closed(0.15, 0.25));
    table.addRow({static_cast<double>(c), deg[0], deg[1], deg[2], easy,
                  harsh});
  }
  table.print(std::cout, 3);
}

// Section 3.1: the optimal coarse-view size v = sqrt(N) minimizes
// f(v) = v + N/v; for N = 100,000 the paper quotes v ~ 320 entries, 6.3 KB
// memory at 20 B/entry, 105 B/s at a 1-minute protocol period and ~5 h
// mean discovery time (N/v periods). Part 1 recomputes that table for
// several N; part 2 measures the real system at the paper's scale.
void overheadAnalysis(const BenchEnv& env, Worlds& worlds) {
  printHeader("Section 3.1", "maintenance overhead analysis",
              "N=100k: v~320, 6.3 KB memory, ~105 B/s, ~5 h discovery",
              env);

  std::cout << "# analytical (20 B/entry, 1-minute protocol period)\n";
  stats::TablePrinter analytical({"N", "view_v", "memory_KB",
                                  "bandwidth_Bps", "discovery_hours"});
  for (const double n :
       std::array<double, 5>{1000, 10000, 100000, 1000000, 1442}) {
    const double v = std::sqrt(n);
    const double memoryKb = v * 20.0 / 1000.0;
    const double bandwidthBps = v * 20.0 / 60.0;
    const double discoveryHours = (n / v) /* periods */ / 60.0;
    analytical.addRow({n, v, memoryKb, bandwidthBps, discoveryHours});
  }
  analytical.print(std::cout, 1);

  auto system = worlds.get(defaultConfig(env));
  const auto& net = system->network().stats();
  const double simSeconds = system->simulator().now().toSeconds();
  const double perNodeBps =
      static_cast<double>(net.bytesSent) /
      (simSeconds * static_cast<double>(system->nodeCount()));

  double memBytes = 0.0;
  std::size_t n = 0;
  for (const auto i : system->onlineNodes()) {
    memBytes += 20.0 * (static_cast<double>(system->node(i).degree()) +
                        static_cast<double>(
                            system->shuffleService().viewOf(i).size()));
    ++n;
  }
  const double meanMemKb = n ? memBytes / static_cast<double>(n) / 1000.0
                             : 0.0;

  // Empirical discovery rate: continue the simulation and count the new
  // relationships that appear within the observation window.
  const auto discovered = [&system] {
    std::uint64_t total = 0;
    for (net::NodeIndex i = 0; i < system->nodeCount(); ++i) {
      total += system->node(i).stats().neighborsDiscovered;
    }
    return total;
  };
  const std::uint64_t discoveredBefore = discovered();
  const auto observe = sim::SimDuration::hours(4);
  system->run(observe);
  const double discoveriesPerNodeHour =
      static_cast<double>(discovered() - discoveredBefore) /
      (observe.toHours() * static_cast<double>(system->nodeCount()));

  std::cout << "# measured at " << system->nodeCount() << " hosts\n";
  stats::TablePrinter measured(
      {"per_node_Bps", "mean_membership_KB", "discoveries_per_node_hour"});
  measured.addRow({perNodeBps, meanMemKb, discoveriesPerNodeHour});
  measured.print(std::cout, 3);

  // `rejected` (receiver-side verification said no) is counted apart from
  // `dropped_offline` (receiver dead at the delivery instant), so
  // non-cooperation overhead and churn loss are not conflated.
  std::cout << "# wire outcomes (message counts over the whole run)\n";
  stats::TablePrinter wire({"sent", "delivered", "rejected",
                            "dropped_offline", "acks", "ack_timeouts"});
  wire.addRow({static_cast<double>(net.sent),
               static_cast<double>(net.delivered),
               static_cast<double>(net.rejected),
               static_cast<double>(net.droppedOffline),
               static_cast<double>(net.acksSent),
               static_cast<double>(net.ackTimeouts)});
  wire.print(std::cout, 0);

  // verifyIncoming issues exactly two monitoring queries per verified
  // message (the refreshed self-estimate plus the sender lookup), broken
  // out of the aggregate availabilityQueries counter. Maintenance alone
  // never verifies, so drive a batch of operations through the overlay
  // first.
  core::AnycastParams anycast;
  anycast.range = core::AvRange::closed(0.85, 0.95);
  anycast.strategy = AnycastStrategy::kRetriedGreedy;
  (void)system->runAnycastBatch(core::AvBand::mid(), anycast,
                                env.messagesPerPoint);

  std::uint64_t verified = 0;
  std::uint64_t rejectedMsgs = 0;
  std::uint64_t verifyQueries = 0;
  std::uint64_t allQueries = 0;
  for (net::NodeIndex i = 0; i < system->nodeCount(); ++i) {
    const auto& st = system->node(i).stats();
    verified += st.messagesVerified;
    rejectedMsgs += st.messagesRejected;
    verifyQueries += st.verificationQueries;
    allQueries += st.availabilityQueries;
  }
  std::cout << "# per-message verification accounting (after an anycast "
               "batch; verify_queries = 2 x verified_msgs by contract)\n";
  stats::TablePrinter verification({"verified_msgs", "rejected_msgs",
                                    "verify_queries", "verify_q_share"});
  verification.addRow(
      {static_cast<double>(verified), static_cast<double>(rejectedMsgs),
       static_cast<double>(verifyQueries),
       allQueries ? static_cast<double>(verifyQueries) /
                        static_cast<double>(allQueries)
                  : 0.0});
  verification.print(std::cout, 3);

  std::cout << "# note: measured bandwidth covers shuffling + operations; "
               "availability queries are accounted by the monitoring "
               "substrate\n";
}

struct Row {
  std::string_view name;
  void (*run)(const BenchEnv&, Worlds&);
};

constexpr std::array<Row, 16> kRows = {{
    {"fig02_overlay_snapshot", fig02},
    {"fig03_hs_scaling", fig03},
    {"fig04_vs_incoming", fig04},
    {"fig05_flooding_attack", fig05},
    {"fig06_legit_rejection", fig06},
    {"fig07_anycast_hops", fig07},
    {"fig08_anycast_harsh", fig08},
    {"fig09_retried_greedy", fig09},
    {"fig10_random_overlay", fig10},
    {"fig11_multicast_latency", fig11},
    {"fig12_multicast_spam", fig12},
    {"fig13_multicast_reliability", fig13},
    {"ablation_baselines", ablationBaselines},
    {"ablation_epsilon_cushion", ablationEpsilonCushion},
    {"ablation_predicates", ablationPredicates},
    {"overhead_analysis", overheadAnalysis},
}};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Row*> chosen;
  for (int i = 1; i < argc; ++i) {
    const std::string_view name = argv[i];
    const auto row =
        std::find_if(kRows.begin(), kRows.end(),
                     [name](const Row& r) { return r.name == name; });
    if (row == kRows.end()) {
      std::cerr << "paper_figures: unknown row '" << name
                << "'; usage: paper_figures [name...] with names:\n";
      for (const Row& r : kRows) std::cerr << "  " << r.name << "\n";
      return 2;
    }
    chosen.push_back(&*row);
  }
  if (chosen.empty()) {
    for (const Row& r : kRows) chosen.push_back(&r);
  }

  const BenchEnv env = BenchEnv::fromEnv();
  Worlds worlds(env.warmup);
  // Every row starts from the stream state a fresh process has, so its
  // output does not depend on which rows ran before it.
  const auto flags = std::cout.flags();
  const auto precision = std::cout.precision();
  for (const Row* row : chosen) {
    std::cerr << "== " << row->name << "\n";
    std::cout.flags(flags);
    std::cout.precision(precision);
    row->run(env, worlds);
  }
  return 0;
}
