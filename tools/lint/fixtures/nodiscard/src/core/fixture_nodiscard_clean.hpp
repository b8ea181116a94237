// Clean counterpart: attributed declarations, return statements that
// spell Expected<...>, out-of-line definitions (the attribute lives on
// the in-class declaration), and non-try_* names.
#pragma once

#include "common/expected.hpp"

namespace biosens::core {

[[nodiscard]] Expected<double> try_fixture_free(double x);

class FixtureDevice {
 public:
  [[nodiscard]] Expected<double> try_read() const;

  [[nodiscard]] static Expected<FixtureDevice> try_create(int channel);

  /// Not a try_* name: the compile-time class-level [[nodiscard]] on
  /// Expected still protects it; the declaration check is scoped to
  /// the try_* convention.
  Expected<double> peek() const;
};

inline Expected<double> fixture_forwarder(const FixtureDevice& device) {
  if (!device.try_read()) {
    return Expected<double>(device.try_read().error());
  }
  return device.try_read();
}

// Out-of-line definition in a header: attribute belongs to the
// declaration above, so this must stay silent.
inline Expected<double> FixtureDevice::try_read() const {
  return Expected<double>(1.0);
}

}  // namespace biosens::core
