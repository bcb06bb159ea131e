// The CYCLON view merge over a sorted coarse view.
//
// A shuffle delivery merges the entries a peer offered into the
// receiver's view: entries already present are skipped, free slots fill
// first, then each further entry overwrites one the receiver just sent
// away (it lives on in the partner's view), and once those run out, a
// random entry. Views hold at most a few dozen entries (64 in the scale
// scenarios), so positions are found by rank — a branch-free count of the
// entries below a value, which compilers vectorize — and a full view
// replaces an entry with one shifted copy between the victim and the
// insert point, never an erase followed by an insert.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/network.hpp"
#include "sim/random.hpp"

namespace avmem::avmon {

/// The number of entries of the sorted `view` below `x`: x's position if
/// present, its insert position if not.
[[nodiscard]] inline std::size_t rankBelow(
    std::span<const net::NodeIndex> view, net::NodeIndex x) noexcept {
  // A 32-bit count keeps the vector lanes as wide as the entries.
  std::uint32_t rank = 0;
  for (const net::NodeIndex v : view) rank += v < x ? 1 : 0;
  return rank;
}

/// Merge `offered` into the sorted `view` of node `self` (capacity
/// `capacity`): skip `self` and entries already present, fill free slots,
/// then overwrite the entries of `sentAway` still in the view, in order,
/// then evict uniformly at random with `rng`. The view stays sorted;
/// `rng` is drawn only for random evictions. A full view must be
/// non-empty (capacity >= 1).
inline void mergeView(std::vector<net::NodeIndex>& view, net::NodeIndex self,
                      std::size_t capacity,
                      std::span<const net::NodeIndex> offered,
                      std::span<const net::NodeIndex> sentAway,
                      sim::Rng& rng) {
  std::size_t replaceCursor = 0;
  for (const net::NodeIndex candidate : offered) {
    if (candidate == self) continue;
    const std::size_t at = rankBelow(view, candidate);
    if (at < view.size() && view[at] == candidate) continue;
    if (view.size() < capacity) {
      view.insert(view.begin() + static_cast<std::ptrdiff_t>(at), candidate);
      continue;
    }
    std::size_t victim = view.size();
    while (replaceCursor < sentAway.size()) {
      const net::NodeIndex target = sentAway[replaceCursor];
      ++replaceCursor;
      const std::size_t pos = rankBelow(view, target);
      if (pos < view.size() && view[pos] == target) {
        victim = pos;
        break;
      }
    }
    if (victim == view.size()) victim = rng.index(view.size());
    // Drop view[victim] and insert the candidate at its rank in one pass:
    // only the entries between the two positions move, by one slot.
    net::NodeIndex* v = view.data();
    if (victim < at) {
      std::copy(v + victim + 1, v + at, v + victim);
      v[at - 1] = candidate;
    } else {
      std::copy_backward(v + at, v + victim, v + victim + 1);
      v[at] = candidate;
    }
  }
}

}  // namespace avmem::avmon
