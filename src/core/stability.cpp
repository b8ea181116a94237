#include "core/stability.hpp"

#include <cmath>

#include "common/error.hpp"
#include "electrode/assembly.hpp"

namespace biosens::core {

StabilityReport stability_after(const SensorSpec& spec, Time age) {
  require<SpecError>(age.seconds() >= 0.0, "age must be non-negative");
  StabilityReport report;
  report.age = age;
  report.initial =
      electrode::try_synthesize(spec.assembly, Time::seconds(0.0))
          .value()
          .intrinsic_sensitivity();
  report.aged = electrode::try_synthesize(spec.assembly, age)
                    .value()
                    .intrinsic_sensitivity();
  report.retained = report.aged / report.initial;
  return report;
}

Time recalibration_interval(const SensorSpec& spec,
                            double tolerated_drift) {
  require<SpecError>(tolerated_drift > 0.0 && tolerated_drift < 1.0,
                     "tolerated drift must be in (0, 1)");
  const double lambda =
      spec.assembly.immobilization.decay.per_second();
  require<SpecError>(lambda > 0.0,
                     "device does not decay; no recalibration needed");
  return Time::seconds(-std::log(1.0 - tolerated_drift) / lambda);
}

Time useful_lifetime(const SensorSpec& spec, double min_retained) {
  require<SpecError>(min_retained > 0.0 && min_retained < 1.0,
                     "minimum retention must be in (0, 1)");
  const double lambda =
      spec.assembly.immobilization.decay.per_second();
  require<SpecError>(lambda > 0.0, "device does not decay");
  return Time::seconds(-std::log(min_retained) / lambda);
}

double compensated_slope(double fresh_slope_a_per_mm,
                         double standard_response_a,
                         double expected_response_a) {
  require<AnalysisError>(fresh_slope_a_per_mm > 0.0,
                         "fresh slope must be positive");
  require<AnalysisError>(expected_response_a > 0.0,
                         "expected standard response must be positive");
  require<AnalysisError>(standard_response_a > 0.0,
                         "measured standard response must be positive");
  return fresh_slope_a_per_mm * standard_response_a / expected_response_a;
}

}  // namespace biosens::core
