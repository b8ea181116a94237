// Clean counterpart: the seeded project generator, the monotonic
// clock (metrics-only, never byte-compared), and identifiers that
// merely contain banned words.
#include <chrono>

#include "common/rng.hpp"

namespace biosens::engine {

double fixture_seeded_draws(std::uint64_t seed) {
  Rng rng(seed);
  Rng child = rng.split();  // derived stream, reproducible run-to-run
  return child.uniform();
}

double fixture_monotonic_timing() {
  const auto t0 = std::chrono::steady_clock::now();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct FixtureWatch {
  double time() const { return 0.0; }  // member named time: legal
};

double fixture_member_time_call() {
  FixtureWatch watch;
  double downtime = watch.time();  // call through an object, legal
  double time_budget = downtime;   // identifier containing "time"
  return time_budget;
}

}  // namespace biosens::engine
