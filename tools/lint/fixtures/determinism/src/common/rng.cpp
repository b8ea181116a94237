// Fixture: the sanctioned RNG home — nondeterminism sources here are
// allowed (this is where seeding policy lives). It is the one place
// allowed to talk about <random> machinery (e.g. comparing against
// std::mt19937 in tests of statistical quality), so both determinism
// checks stay silent on it.
#include <random>

namespace fix {

double draw_uniform() {
  static std::mt19937 gen(42);
  return static_cast<double>(gen() % 1000) / 1000.0;
}

unsigned fixture_rng_internal() {
  std::random_device device;
  std::mt19937_64 reference(device());
  return static_cast<unsigned>(reference());
}

}  // namespace fix
