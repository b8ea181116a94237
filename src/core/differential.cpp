#include "core/differential.hpp"

namespace biosens::core {

SensorSpec DifferentialSensor::make_reference(SensorSpec spec) {
  spec.name += " (reference channel)";
  // Same film and geometry; essentially no wired enzyme, so the
  // catalytic current vanishes while area-borne backgrounds remain.
  spec.assembly.loading_monolayers = 1e-9;
  return spec;
}

DifferentialSensor::DifferentialSensor(const SensorSpec& active,
                                       MeasurementOptions options)
    : active_(active, options),
      reference_(make_reference(active), options) {}

double DifferentialSensor::measure_differential_a(const chem::Sample& sample,
                                                  Rng& rng) const {
  // Both channels share the cell and run concurrently on independent
  // readout channels (independent electronics noise, common chemistry).
  const double a = active_.try_measure(sample, rng).value().response_a;
  const double r = reference_.try_measure(sample, rng).value().response_a;
  return a - r;
}

double DifferentialSensor::ideal_differential_a(
    const chem::Sample& sample) const {
  return active_.ideal_response_a(sample) -
         reference_.ideal_response_a(sample);
}

}  // namespace biosens::core
