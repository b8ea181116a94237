#include "chem/kinetics.hpp"

#include "common/error.hpp"
#include "obs/span.hpp"

namespace biosens::chem {

Expected<MichaelisMenten> MichaelisMenten::try_create(Rate k_cat,
                                                      Concentration k_m) {
  obs::ObsSpan span(Layer::kChem, "mm-kinetics");
  return span.watch([&]() -> Expected<MichaelisMenten> {
    BIOSENS_EXPECT(k_cat.per_second() > 0.0, ErrorCode::kSpec,
                   Layer::kChem, "kinetics", "k_cat must be positive");
    BIOSENS_EXPECT(k_m.milli_molar() > 0.0, ErrorCode::kSpec, Layer::kChem,
                   "kinetics", "K_M must be positive");
    return MichaelisMenten(k_cat, k_m, Unchecked{});
  }());
}

double MichaelisMenten::turnover_per_second(Concentration substrate) const {
  const double s = substrate.milli_molar();
  if (s <= 0.0) return 0.0;
  return k_cat_.per_second() * s / (k_m_.milli_molar() + s);
}

double MichaelisMenten::areal_flux(SurfaceCoverage gamma,
                                   Concentration substrate) const {
  return gamma.mol_per_m2() * turnover_per_second(substrate);
}

double MichaelisMenten::linear_slope() const {
  return k_cat_.per_second() / k_m_.milli_molar();
}

double MichaelisMenten::linearity_deviation(Concentration substrate) const {
  const double s = substrate.milli_molar();
  if (s <= 0.0) return 0.0;
  return s / (k_m_.milli_molar() + s);
}

Expected<Concentration> MichaelisMenten::try_linear_limit(
    double max_deviation) const {
  BIOSENS_EXPECT(max_deviation > 0.0 && max_deviation < 1.0,
                 ErrorCode::kSpec, Layer::kChem, "linear_limit",
                 "max_deviation must be in (0, 1)");
  return Concentration::milli_molar(max_deviation / (1.0 - max_deviation) *
                                    k_m_.milli_molar());
}

Concentration competitive_km(Concentration k_m, Concentration inhibitor,
                             Concentration k_i) {
  require<SpecError>(k_i.milli_molar() > 0.0, "K_I must be positive");
  return Concentration::milli_molar(
      k_m.milli_molar() * (1.0 + inhibitor.milli_molar() / k_i.milli_molar()));
}

double substrate_inhibited_turnover(Rate k_cat, Concentration k_m,
                                    Concentration k_si,
                                    Concentration substrate) {
  require<SpecError>(k_si.milli_molar() > 0.0, "K_SI must be positive");
  const double s = substrate.milli_molar();
  if (s <= 0.0) return 0.0;
  return k_cat.per_second() * s /
         (k_m.milli_molar() + s + s * s / k_si.milli_molar());
}

}  // namespace biosens::chem
