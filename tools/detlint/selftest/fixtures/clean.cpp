// detlint selftest fixture: a TU that exercises every pattern detlint
// inspects and must produce ZERO findings. Legitimate idioms the lint
// must not flag: steady_clock host timing, a comment and a string that
// name std::unordered_map, and iteration over an ordered member.
// This TU is never compiled by the main build.

#include <chrono>
#include <cstdint>
#include <map>
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

  // Naming a banned type in a comment or a string is not using it:
  // std::unordered_map<int, int> stays prose here.
  static const char* advice() {
    return "use std::map, not std::unordered_map";
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
