#include "transport/analytic.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/constants.hpp"
#include "common/error.hpp"

namespace biosens::transport {

Expected<CurrentDensity> try_cottrell_current_density(int electrons,
                                                      Diffusivity d,
                                                      Concentration bulk,
                                                      Time t) {
  BIOSENS_EXPECT(t.seconds() > 0.0, ErrorCode::kNumerics, Layer::kTransport,
                 "cottrell", "Cottrell time must be > 0");
  BIOSENS_EXPECT(electrons > 0, ErrorCode::kSpec, Layer::kTransport,
                 "cottrell", "electron count must be positive");
  const double j = electrons * constants::kFaraday * bulk.milli_molar() *
                   std::sqrt(d.m2_per_s() / (std::numbers::pi * t.seconds()));
  return CurrentDensity::amps_per_m2(j);
}

Expected<CurrentDensity> try_limiting_current_density(int electrons,
                                                      Diffusivity d,
                                                      Concentration bulk,
                                                      double delta_m) {
  BIOSENS_EXPECT(delta_m > 0.0, ErrorCode::kNumerics, Layer::kTransport,
                 "limiting current", "layer thickness must be > 0");
  BIOSENS_EXPECT(electrons > 0, ErrorCode::kSpec, Layer::kTransport,
                 "limiting current", "electron count must be positive");
  const double j = electrons * constants::kFaraday * d.m2_per_s() *
                   bulk.milli_molar() / delta_m;
  return CurrentDensity::amps_per_m2(j);
}

double stirred_layer_thickness_m(double stir_rate_rpm) {
  require<SpecError>(stir_rate_rpm > 0.0, "stir rate must be positive");
  // Empirical: ~50 um at 100 rpm thinning with sqrt of the stir rate,
  // floored at 5 um (convective limit of small cells).
  const double delta = 50e-6 * std::sqrt(100.0 / stir_rate_rpm);
  return std::max(delta, 5e-6);
}

double quiescent_layer_thickness_m(Diffusivity d, Time t) {
  require<NumericsError>(t.seconds() >= 0.0, "time must be non-negative");
  return std::sqrt(std::numbers::pi * d.m2_per_s() * t.seconds());
}

CurrentDensity koutecky_levich(CurrentDensity j_kinetic,
                               CurrentDensity j_limiting) {
  const double jk = j_kinetic.amps_per_m2();
  const double jl = j_limiting.amps_per_m2();
  if (jk <= 0.0 || jl <= 0.0) return CurrentDensity{};
  return CurrentDensity::amps_per_m2(jk * jl / (jk + jl));
}

}  // namespace biosens::transport
