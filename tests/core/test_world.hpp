// Shared helpers for core-protocol tests: deterministic cyclic churn
// traces and hand-assembled protocol contexts.
#pragma once

#include <memory>
#include <vector>

#include "avmon/availability_service.hpp"
#include "core/avmem_node.hpp"
#include "core/predicates.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "trace/churn_trace.hpp"

namespace avmem::core::testing {

/// A trace where host i is online in epoch e iff ((e + i) % 100) is below
/// round(av[i] * 100): long-run availability is exactly av[i] (to 1%), the
/// pattern is deterministic, and phases are decorrelated across hosts.
inline trace::ChurnTrace cyclicTrace(
    const std::vector<double>& availabilities, std::size_t epochs = 600,
    sim::SimDuration epochDuration = sim::SimDuration::minutes(20)) {
  std::vector<std::vector<std::uint8_t>> rows;
  rows.reserve(availabilities.size());
  for (std::size_t i = 0; i < availabilities.size(); ++i) {
    const auto onEpochs =
        static_cast<std::size_t>(availabilities[i] * 100.0 + 0.5);
    std::vector<std::uint8_t> row(epochs);
    for (std::size_t e = 0; e < epochs; ++e) {
      row[e] = ((e + i) % 100) < onEpochs ? 1 : 0;
    }
    rows.push_back(std::move(row));
  }
  return trace::ChurnTrace(std::move(rows), epochDuration);
}

/// A minimal hand-wired protocol world: simulator, oracle availability,
/// shared pair hash, and nodes, with a caller-supplied predicate.
/// Gives unit tests exact control over every moving part.
struct ManualWorld {
  explicit ManualWorld(trace::ChurnTrace t, AvmemPredicate pred,
                       ProtocolConfig cfg = {})
      : trace(std::move(t)),
        oracle(trace, sim),
        predicate(std::move(pred)),
        ids(makeNodeIds(trace.hostCount(), 77)),
        ctx{sim, oracle, predicate, ids,
            hashing::PairHasher(cfg.hashAlgorithm), cfg} {
    for (net::NodeIndex i = 0; i < trace.hostCount(); ++i) {
      nodes.emplace_back(i, ctx);
    }
  }

  /// Every host index (a "full" coarse view for exhaustive discovery).
  [[nodiscard]] std::vector<net::NodeIndex> fullView() const {
    std::vector<net::NodeIndex> v(trace.hostCount());
    for (net::NodeIndex i = 0; i < v.size(); ++i) v[i] = i;
    return v;
  }

  sim::Simulator sim;
  trace::ChurnTrace trace;
  avmon::OracleAvailabilityService oracle;
  AvmemPredicate predicate;
  std::vector<NodeId> ids;
  ProtocolContext ctx;
  std::vector<AvmemNode> nodes;
};

/// f = `hsValue` inside the horizontal band, `vsValue` outside: the
/// simplest fully-controllable predicate for protocol unit tests.
[[nodiscard]] inline AvmemPredicate twoLevelPredicate(double hsValue,
                                                      double vsValue,
                                                      double epsilon = 0.1) {
  stats::Histogram h(0.0, 1.0, 10);
  for (int b = 0; b < 10; ++b) h.add(h.binMid(b), 10);
  return AvmemPredicate(std::make_shared<ConstantFractionSub>(hsValue),
                        std::make_shared<ConstantFractionSub>(vsValue),
                        epsilon, AvailabilityPdf(std::move(h), 100.0));
}

}  // namespace avmem::core::testing
