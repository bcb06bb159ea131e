// The horizontal/vertical sliver membership lists kept by each node.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "core/node_id.hpp"
#include "core/predicates.hpp"
#include "sim/time.hpp"

namespace avmem::core {

/// One neighbor entry, materialized. `cachedAv` is the availability the
/// owner fetched at discovery/refresh time; forwarding decisions use this
/// cache rather than re-querying the monitoring service per message (paper
/// Section 3.2), which is exactly the staleness Figures 5-6 quantify.
struct NeighborEntry {
  NodeIndex peer = 0;
  double cachedAv = 0.0;
  sim::SimTime addedAt;
  sim::SimTime refreshedAt;
};

/// A small neighbor list (one sliver), stored as flat parallel arrays.
///
/// Lists stay O(log N) by construction, so linear scans beat any indexed
/// structure — and the scans that matter (`contains` during Discovery, one
/// per coarse-view entry per protocol period per node) touch only the dense
/// 4-byte peer array, not the full 32-byte entries. Removal swaps with the
/// back (order within a sliver carries no protocol meaning and stays
/// deterministic for a deterministic operation sequence).
class SliverList {
 public:
  [[nodiscard]] bool contains(NodeIndex peer) const noexcept {
    return std::find(peers_.begin(), peers_.end(), peer) != peers_.end();
  }

  /// Position of `peer`, or npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t indexOf(NodeIndex peer) const noexcept {
    const auto it = std::find(peers_.begin(), peers_.end(), peer);
    return it == peers_.end()
               ? npos
               : static_cast<std::size_t>(it - peers_.begin());
  }

  /// Insert or refresh an entry; returns true if newly inserted.
  bool upsert(NodeIndex peer, double av, sim::SimTime now) {
    if (const std::size_t i = indexOf(peer); i != npos) {
      avs_[i] = av;
      refreshedAt_[i] = now;
      return false;
    }
    peers_.push_back(peer);
    avs_.push_back(av);
    addedAt_.push_back(now);
    refreshedAt_.push_back(now);
    return true;
  }

  /// Remove `peer`; returns true if it was present.
  bool remove(NodeIndex peer) {
    const std::size_t i = indexOf(peer);
    if (i == npos) return false;
    removeAt(i);
    return true;
  }

  /// Remove the entry at position `i` (swap-with-back).
  void removeAt(std::size_t i) noexcept {
    const std::size_t last = peers_.size() - 1;
    peers_[i] = peers_[last];
    avs_[i] = avs_[last];
    addedAt_[i] = addedAt_[last];
    refreshedAt_[i] = refreshedAt_[last];
    peers_.pop_back();
    avs_.pop_back();
    addedAt_.pop_back();
    refreshedAt_.pop_back();
  }

  /// Refresh the entry at position `i` in place.
  void refreshAt(std::size_t i, double av, sim::SimTime now) noexcept {
    avs_[i] = av;
    refreshedAt_[i] = now;
  }

  [[nodiscard]] std::size_t size() const noexcept { return peers_.size(); }
  [[nodiscard]] bool empty() const noexcept { return peers_.empty(); }

  // Flat-array view (hot paths iterate it directly).
  [[nodiscard]] std::span<const NodeIndex> peers() const noexcept {
    return peers_;
  }

  [[nodiscard]] NodeIndex peerAt(std::size_t i) const noexcept {
    return peers_[i];
  }
  [[nodiscard]] double cachedAvAt(std::size_t i) const noexcept {
    return avs_[i];
  }

  /// Materialize entry `i` (cold paths: snapshots, diagnostics).
  [[nodiscard]] NeighborEntry entryAt(std::size_t i) const noexcept {
    return NeighborEntry{peers_[i], avs_[i], addedAt_[i], refreshedAt_[i]};
  }

  /// Append every entry, materialized, to `out`.
  void appendTo(std::vector<NeighborEntry>& out) const {
    out.reserve(out.size() + peers_.size());
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      out.push_back(entryAt(i));
    }
  }

  /// Materialized copy of the whole list (tests, analyses, benches).
  [[nodiscard]] std::vector<NeighborEntry> snapshot() const {
    std::vector<NeighborEntry> out;
    appendTo(out);
    return out;
  }

  void reserve(std::size_t n) {
    peers_.reserve(n);
    avs_.reserve(n);
    addedAt_.reserve(n);
    refreshedAt_.reserve(n);
  }

  void clear() noexcept {
    peers_.clear();
    avs_.clear();
    addedAt_.clear();
    refreshedAt_.clear();
  }

  /// The four parallel arrays, for checkpointing (snapshot/): upsert()
  /// stamps `now`, so a faithful restore installs the original timestamps
  /// wholesale instead of replaying inserts, and keeps entry order exactly
  /// (swap-with-back removal makes order a function of operation history,
  /// so a restored list must match it element-for-element to stay
  /// bit-identical going forward). A restore that fills them through the
  /// mutable overload must leave them equally long.
  [[nodiscard]] auto persistedArrays() const noexcept {
    return std::tie(peers_, avs_, addedAt_, refreshedAt_);
  }
  [[nodiscard]] auto persistedArrays() noexcept {
    return std::tie(peers_, avs_, addedAt_, refreshedAt_);
  }

 private:
  std::vector<NodeIndex> peers_;
  std::vector<double> avs_;
  std::vector<sim::SimTime> addedAt_;
  std::vector<sim::SimTime> refreshedAt_;
};

}  // namespace avmem::core
