// Seeded determinism-discipline violations: every banned entropy/clock
// source the check guards byte-identity against.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>  // SEED determinism-discipline

namespace biosens::engine {

unsigned fixture_entropy_sources() {
  std::random_device device;  // SEED determinism-discipline
  std::mt19937 engine(device());  // SEED determinism-discipline
  return static_cast<unsigned>(engine());
}

long fixture_wall_clock() {
  const auto now = std::chrono::system_clock::now();  // SEED determinism-discipline
  return static_cast<long>(
      std::chrono::duration_cast<std::chrono::seconds>(
          now.time_since_epoch())
          .count());
}

int fixture_c_library_entropy() {
  std::srand(42);  // SEED determinism-discipline
  const int draw = std::rand();  // SEED determinism-discipline
  return draw + static_cast<int>(time(nullptr));  // SEED determinism-discipline
}

}  // namespace biosens::engine
