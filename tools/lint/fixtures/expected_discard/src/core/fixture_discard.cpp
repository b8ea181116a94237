// Seeded expected-discard violations: try_* results dropped on the
// floor in every statement shape the check must see through.
#include "common/expected.hpp"

namespace biosens::core {

[[nodiscard]] Expected<double> try_fixture_measure(double x);

struct FixtureSensor {
  [[nodiscard]] Expected<double> try_measure(double x) const;
};

void fixture_plain_discard() {
  try_fixture_measure(1.0);  // SEED expected-discard
}

void fixture_member_discard(const FixtureSensor& sensor) {
  sensor.try_measure(2.0);  // SEED expected-discard
}

void fixture_discard_after_condition(bool armed, const FixtureSensor& s) {
  if (armed) s.try_measure(3.0);  // SEED expected-discard
}

void fixture_void_cast_discard() {
  // Explicit (void) still drops the error the Expected carries; the
  // audited escape hatch is the allow() suppression, not a cast.
  (void)try_fixture_measure(4.0);  // SEED expected-discard
}

void fixture_multiline_discard(const FixtureSensor& sensor) {
  sensor.try_measure(  // SEED expected-discard
      5.0);
}

}  // namespace biosens::core
