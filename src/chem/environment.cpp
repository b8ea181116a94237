#include "chem/environment.hpp"

#include <cmath>

#include "common/constants.hpp"
#include "common/error.hpp"

namespace biosens::chem {

Buffer reference_buffer() { return Buffer{}; }  // PBS pH 7.4, 25 degC

Concentration air_saturated_oxygen() {
  return Concentration::micro_molar(250.0);
}

Expected<double> try_raw_activity(const EnvironmentSensitivity& env,
                                  const Buffer& buffer,
                                  Concentration dissolved_oxygen) {
  BIOSENS_EXPECT(env.ph_width > 0.0, ErrorCode::kSpec, Layer::kChem,
                 "environment", "pH width must be positive");
  BIOSENS_EXPECT(env.activation_energy_kj_mol >= 0.0, ErrorCode::kSpec,
                 Layer::kChem, "environment",
                 "activation energy must be non-negative");
  BIOSENS_EXPECT(dissolved_oxygen.milli_molar() >= 0.0, ErrorCode::kSpec,
                 Layer::kChem, "environment",
                 "dissolved oxygen must be non-negative");

  double factor = 1.0;

  // O2 co-substrate saturation (oxidases only). An anoxic sample is a
  // legitimate physical state, not an error: the cycle simply stalls
  // and the activity factor goes to zero.
  if (env.oxygen_km.milli_molar() > 0.0) {
    const double o2 = dissolved_oxygen.milli_molar();
    factor *= o2 / (env.oxygen_km.milli_molar() + o2);
  }

  // Gaussian activity-vs-pH bell around the optimum.
  const double dph = (buffer.ph - env.ph_optimum) / env.ph_width;
  factor *= std::exp(-0.5 * dph * dph);

  // Arrhenius temperature response of the turnover.
  const double t = buffer.temperature.kelvin();
  BIOSENS_EXPECT(t > 0.0, ErrorCode::kSpec, Layer::kChem, "environment",
                 "temperature must be positive");
  const double t_ref = constants::kRoomTemperatureK;
  const double ea = env.activation_energy_kj_mol * 1e3;  // J/mol
  factor *= std::exp(-ea / constants::kGasConstant *
                     (1.0 / t - 1.0 / t_ref));
  return factor;
}

Expected<double> try_relative_activity(const EnvironmentSensitivity& env,
                                       const Buffer& buffer,
                                       Concentration dissolved_oxygen) {
  auto reference =
      try_raw_activity(env, reference_buffer(), air_saturated_oxygen());
  if (!reference) return ctx("reference activity", std::move(reference));
  BIOSENS_EXPECT(*reference > 0.0, ErrorCode::kNumerics, Layer::kChem,
                 "environment", "reference activity must be positive");
  const double ref = *reference;
  return try_raw_activity(env, buffer, dissolved_oxygen)
      .map([ref](double raw) { return raw / ref; });
}

}  // namespace biosens::chem
