// detlint selftest fixture: a TU that exercises every pattern detlint
// inspects and must produce ZERO findings. Legitimate idioms the lint
// must not flag: const plan methods, lane-writer plan methods,
// Rng::stream draws, steady_clock host timing, and point queries into an
// unordered map held as a local. This TU is never compiled by the main
// build.

#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace sim {
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0) : s_(seed) {}
  static Rng stream(std::uint64_t seed, std::uint64_t salt,
                    std::uint64_t seq);
  std::uint64_t next();
  std::uint64_t below(std::uint64_t bound);

 private:
  std::uint64_t s_;
};
}  // namespace sim

struct MaintenancePlan {
  std::uint64_t draws = 0;
};

struct Network {
  bool isOnline(int node) const;
  void send(int dst, int payload);
};

class Engine {
 public:
  // Const plan method drawing from a counter stream: the blessed shape.
  void planDiscovery(int node, MaintenancePlan& plan) const {
    if (!network_.isOnline(node)) {
      return;
    }
    sim::Rng rng = sim::Rng::stream(seed_, static_cast<std::uint64_t>(node),
                                    round_);
    plan.draws += rng.below(16);
  }

  // Non-const plan method that writes only its own lane buffer.
  void planExchange(int initiator, unsigned long lane) {
    lanes_[lane] = initiator;
  }

  // Commit phase: sequential member draws and network sends are fine.
  void commitDiscovery(int node, const MaintenancePlan& plan) {
    applied_ += plan.draws + rng_.next();
    network_.send(node, 1);
  }

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

 private:
  Network network_;
  sim::Rng rng_{1};
  std::uint64_t seed_ = 3;
  std::uint64_t round_ = 0;
  std::uint64_t applied_ = 0;
  int lanes_[8] = {};
};

