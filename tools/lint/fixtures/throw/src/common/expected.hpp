// Clean counterpart: the error core itself may throw — this fixture
// impersonates src/common/expected.hpp and must produce no findings.
#include <stdexcept>

namespace biosens {

[[noreturn]] void fixture_raise(const char* what) {
  throw std::runtime_error(what);  // allowed: inside the error core
}

int fixture_boundary(int x) {
  try {
    if (x < 0) fixture_raise("negative");
  } catch (const std::exception&) {
    return -1;
  }
  return x;
}

}  // namespace biosens
