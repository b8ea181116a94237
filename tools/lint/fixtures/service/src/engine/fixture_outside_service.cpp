// Growth primitives are perfectly legal outside src/service/ — the
// service-discipline check is scoped, not global.
#include <thread>
#include <vector>

namespace biosens::engine {

void fixture_engine_growth(std::vector<double>& samples) {
  samples.push_back(1.0);
  samples.emplace_back(2.0);
}

}  // namespace biosens::engine
