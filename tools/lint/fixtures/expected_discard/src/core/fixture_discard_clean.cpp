// Clean counterpart: every sanctioned way of consuming a try_* result,
// a try_*-named declaration (not a call), and one justified
// suppression proving the allow() syntax.
#include "common/expected.hpp"

namespace biosens::core {

[[nodiscard]] Expected<double> try_fixture_measure(double x);

struct FixtureSensor {
  [[nodiscard]] Expected<double> try_measure(double x) const;
  bool try_submit(int job);  // declaration, not a discarded call
};

Expected<double> fixture_bound_result() {
  auto result = try_fixture_measure(1.0);
  if (!result.has_value()) return result.error();
  return result.value();
}

Expected<double> fixture_returned_result(const FixtureSensor& sensor) {
  return sensor.try_measure(2.0);
}

double fixture_chained_result(const FixtureSensor& sensor) {
  return sensor.try_measure(3.0).value_or(0.0);
}

bool fixture_tested_result(const FixtureSensor& sensor) {
  if (!sensor.try_measure(4.0)) return false;
  return sensor.try_measure(5.0).has_value();
}

void fixture_justified_discard(const FixtureSensor& sensor) {
  // The warm-up draw is discarded by design; the suppression is the
  // audited escape hatch.
  sensor.try_measure(6.0);  // biosens-lint: allow(expected-discard)
}

}  // namespace biosens::core
