// detlint selftest fixture: every violation here is deliberate.
// Seeded violations: nondet-source (rand, random_device, system_clock,
// time(), default-seeded engine).
// This TU is never compiled by the main build.

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

inline double sampleEverything() {
  double acc = 0.0;

  // VIOLATION: C rand().
  acc += std::rand();

  // VIOLATION: random_device is nondeterministic by design.
  std::random_device rd;
  acc += rd();

  // VIOLATION: default-seeded engine (unspecified seed state).
  std::mt19937_64 gen;
  acc += static_cast<double>(gen());

  // VIOLATION: wall clock via system_clock.
  acc += static_cast<double>(
      std::chrono::system_clock::now().time_since_epoch().count());

  // VIOLATION: wall clock via time().
  acc += static_cast<double>(time(nullptr));

  return acc;
}
