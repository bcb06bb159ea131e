// Graph-level analysis of a live AVMEM overlay.
//
// The paper's theorems make *graph* claims: Theorem 2 says the
// sub-overlay spanned by nodes within +-eps of any availability is
// connected w.h.p.; Theorem 1's uniform coverage manifests as flat
// in-degree across availability ranges (Figure 4). This module extracts
// the overlay graph from a running simulation and answers those
// questions: connectivity of arbitrary sub-populations, component
// structure, and in/out degree by availability band.
#pragma once

#include <cstdint>
#include <vector>

#include "core/simulation.hpp"

namespace avmem::core {

/// A snapshot of the overlay's directed edges over a chosen sliver set,
/// restricted to currently-online nodes.
class OverlaySnapshot {
 public:
  /// Capture the overlay of `system` (HS, VS, or both).
  OverlaySnapshot(const AvmemSimulation& system, SliverSet slivers);

  [[nodiscard]] std::size_t nodeCount() const noexcept {
    return adjacency_.size();
  }

  /// True if `n` was online at capture time.
  [[nodiscard]] bool isMember(net::NodeIndex n) const {
    return online_.at(n) != 0;
  }

  /// Out-neighbors of `n` (online targets only).
  [[nodiscard]] const std::vector<net::NodeIndex>& outNeighbors(
      net::NodeIndex n) const {
    return adjacency_.at(n);
  }

  [[nodiscard]] std::size_t outDegree(net::NodeIndex n) const {
    return adjacency_.at(n).size();
  }
  [[nodiscard]] std::size_t inDegree(net::NodeIndex n) const {
    return inDegree_.at(n);
  }

  /// Connected components of the snapshot treated as an *undirected*
  /// graph (the relevant notion for the paper's connectivity theorems:
  /// an edge lets either endpoint learn of the other), restricted to the
  /// online members whose availability lies in [lo, hi]. Returns
  /// component sizes, largest first; empty if no member qualifies.
  [[nodiscard]] std::vector<std::size_t> componentsWithin(double lo,
                                                          double hi) const;

  /// Fraction of qualifying members inside the largest component of the
  /// [lo, hi] sub-overlay; 1.0 means fully connected, 0.0 no members.
  [[nodiscard]] double largestComponentFraction(double lo, double hi) const;

  /// Theorem-2 probe: the connectivity of the +-eps horizontal
  /// sub-overlay centered at `av`.
  [[nodiscard]] double horizontalConnectivity(double av, double eps) const {
    return largestComponentFraction(av - eps, av + eps);
  }

  /// Total incoming links whose *target* availability lies in [lo, hi]
  /// (the Figure-4 measurement).
  [[nodiscard]] std::size_t incomingLinksInto(double lo, double hi) const;

 private:
  std::vector<std::vector<net::NodeIndex>> adjacency_;
  std::vector<std::size_t> inDegree_;
  std::vector<std::uint8_t> online_;
  std::vector<double> availability_;
};

}  // namespace avmem::core
