// detlint selftest fixture: a TU that exercises every pattern detlint
// inspects and must produce ZERO findings. Legitimate idioms the lint
// must not flag: steady_clock host timing, point queries into an
// unordered map held as a local, and iteration over an ordered member.
// This TU is never compiled by the main build.

#include <chrono>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

class Engine {
 public:
  // Host-perf timing with steady_clock is allowed (never simulation
  // state).
  double wallSeconds() const {
    auto t0 = std::chrono::steady_clock::now();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  }

  // Point queries into a local unordered map: no iteration, no finding.
  static double lookupOnly(std::uint64_t key) {
    std::unordered_map<std::uint64_t, double> cache;
    cache.emplace(key, 1.0);
    auto it = cache.find(key);
    return it == cache.end() ? 0.0 : it->second;
  }

  // Iterating an ordered member is deterministic.
  double total() const {
    double acc = 0.0;
    for (const auto& kv : weights_) acc += kv.second;
    return acc;
  }

 private:
  std::map<int, double> weights_;
  std::vector<std::uint64_t> lanes_;
};
