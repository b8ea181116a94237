// Seeded nodiscard-decl violations: Expected-returning try_*
// declarations without [[nodiscard]], free and member, single- and
// multi-line.
#pragma once

#include "common/expected.hpp"

namespace biosens::core {

Expected<double> try_fixture_free(double x);  // SEED nodiscard-decl

Expected<std::vector<double>> try_fixture_nested_template(  // SEED nodiscard-decl
    double lo, double hi);

class FixtureDevice {
 public:
  Expected<double> try_read() const;  // SEED nodiscard-decl

  static Expected<FixtureDevice> try_create(  // SEED nodiscard-decl
      int channel);
};

}  // namespace biosens::core
