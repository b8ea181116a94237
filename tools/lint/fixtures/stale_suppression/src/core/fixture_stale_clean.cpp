// Clean counterpart: an allow() that fires is left alone.
#include "common/expected.hpp"

namespace biosens::core {

struct FixtureStaleSensor {
  [[nodiscard]] Expected<double> try_measure(double x) const;
};

void fixture_live_suppression(const FixtureStaleSensor& sensor) {
  // Fires: the discarded Expected below is a real finding.
  sensor.try_measure(6.0);  // biosens-lint: allow(expected-discard)
}

}  // namespace biosens::core
