// Node identity.
//
// The paper's consistency requirement makes M(x, y) a pure function of the
// two nodes' *addresses* (IP and port) and availabilities. NodeId is that
// address; its 6-byte wire encoding is what the pair hash H consumes.
//
// Simulations address nodes by a dense NodeIndex (see net/network.hpp) and
// keep a NodeIndex -> NodeId table; the split keeps hot paths on small
// integers while the predicate math stays on real identifiers.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/random.hpp"

namespace avmem::core {

using net::NodeIndex;

/// An (IPv4, port) endpoint identity.
struct NodeId {
  std::uint32_t ip = 0;
  std::uint16_t port = 0;

  friend constexpr auto operator<=>(const NodeId&, const NodeId&) noexcept =
      default;

  /// Big-endian wire encoding (4 bytes IP, 2 bytes port) — the input to H.
  [[nodiscard]] constexpr std::array<std::uint8_t, 6> bytes() const noexcept {
    return {static_cast<std::uint8_t>(ip >> 24),
            static_cast<std::uint8_t>(ip >> 16),
            static_cast<std::uint8_t>(ip >> 8),
            static_cast<std::uint8_t>(ip),
            static_cast<std::uint8_t>(port >> 8),
            static_cast<std::uint8_t>(port)};
  }

  /// Dotted-quad rendering, e.g. "10.1.2.3:4000".
  [[nodiscard]] std::string toString() const {
    return std::to_string(ip >> 24) + "." + std::to_string((ip >> 16) & 0xFF) +
           "." + std::to_string((ip >> 8) & 0xFF) + "." +
           std::to_string(ip & 0xFF) + ":" + std::to_string(port);
  }
};

/// Deterministically generate `n` distinct synthetic identities.
[[nodiscard]] inline std::vector<NodeId> makeNodeIds(std::size_t n,
                                                     std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<NodeId> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Distinctness by construction: embed the index in the low IP bits.
    const auto ip = static_cast<std::uint32_t>(
        (10u << 24) | (static_cast<std::uint32_t>(i) & 0x00FFFFFFu));
    const auto port =
        static_cast<std::uint16_t>(1024 + (rng.next() % 60000));
    ids.push_back(NodeId{ip, port});
  }
  return ids;
}

}  // namespace avmem::core
