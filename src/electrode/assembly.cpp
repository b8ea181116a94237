#include "electrode/assembly.hpp"

#include <cmath>

#include "chem/species.hpp"
#include "common/constants.hpp"
#include "common/error.hpp"

namespace biosens::electrode {

Expected<void> Assembly::try_validate() const {
  if (auto m = modification.try_validate(); !m) {
    return ctx("validate assembly", std::move(m));
  }
  if (auto i = immobilization.try_validate(); !i) {
    return ctx("validate assembly", std::move(i));
  }
  BIOSENS_EXPECT(geometry.working_area.square_meters() > 0.0,
                 ErrorCode::kSpec, Layer::kElectrode, "assembly",
                 "electrode area must be positive");
  BIOSENS_EXPECT(enzyme.kinetics_for(substrate).has_value(), ErrorCode::kSpec,
                 Layer::kElectrode, "assembly",
                 "enzyme '" + enzyme.name + "' has no kinetics for '" +
                     substrate + "'");
  BIOSENS_EXPECT(loading_monolayers > 0.0, ErrorCode::kSpec,
                 Layer::kElectrode, "assembly",
                 "enzyme loading must be positive");
  BIOSENS_EXPECT(loading_monolayers <= immobilization.max_monolayers,
                 ErrorCode::kSpec, Layer::kElectrode, "assembly",
                 "enzyme loading exceeds what " +
                     std::string(to_string(immobilization.method)) +
                     " supports");
  BIOSENS_EXPECT(km_tuning > 0.0, ErrorCode::kSpec, Layer::kElectrode,
                 "assembly", "km_tuning must be positive");
  BIOSENS_EXPECT(noise_tuning > 0.0, ErrorCode::kSpec, Layer::kElectrode,
                 "assembly", "noise_tuning must be positive");
  return ok();
}

Expected<chem::MichaelisMenten> EffectiveLayer::try_kinetics() const {
  return ctx("effective layer kinetics",
             chem::MichaelisMenten::try_create(k_cat_app, k_m_app));
}

CurrentDensity EffectiveLayer::catalytic_current_density(
    const chem::MichaelisMenten& kin, Concentration substrate_conc) const {
  const double flux = kin.areal_flux(wired_coverage, substrate_conc);
  return CurrentDensity::amps_per_m2(electrons * constants::kFaraday * flux);
}

Current EffectiveLayer::catalytic_current(
    const chem::MichaelisMenten& kin, Concentration substrate_conc) const {
  return catalytic_current_density(kin, substrate_conc) * geometric_area;
}

Sensitivity EffectiveLayer::intrinsic_sensitivity() const {
  const double slope = electrons * constants::kFaraday *
                       wired_coverage.mol_per_m2() *
                       try_kinetics().value().linear_slope();
  return Sensitivity::canonical(slope);
}

Expected<EffectiveLayer> try_synthesize(const Assembly& assembly, Time age) {
  if (auto v = assembly.try_validate(); !v) {
    return ctx("synthesize layer", Expected<EffectiveLayer>(v.error()));
  }
  BIOSENS_EXPECT(age.seconds() >= 0.0, ErrorCode::kSpec, Layer::kElectrode,
                 "synthesize layer", "age must be non-negative");

  auto substrate_species = chem::try_species(assembly.substrate);
  if (!substrate_species) {
    return ctx("synthesize layer",
               Expected<EffectiveLayer>(substrate_species.error()));
  }

  const auto kin = assembly.enzyme.kinetics_for(assembly.substrate);
  const Modification& mod = assembly.modification;
  const Immobilization& imm = assembly.immobilization;

  // Wired coverage per geometric area: the deposited amount (loading, in
  // geometric monolayers), spread over the nanomaterial's enhanced area,
  // reduced to the fraction that stays active after immobilization, is
  // electrically wired, and has not yet decayed.
  const double activity = remaining_activity(imm, age);
  const double coverage =
      assembly.enzyme.monolayer_coverage().mol_per_m2() *
      assembly.loading_monolayers * mod.area_enhancement *
      imm.activity_retention * mod.transfer_efficiency * activity;

  EffectiveLayer layer;
  layer.substrate = assembly.substrate;
  layer.substrate_diffusivity = substrate_species.value()->diffusivity;
  layer.wired_coverage = SurfaceCoverage::mol_per_m2(coverage);
  layer.k_cat_app = kin->k_cat;
  layer.k_m_app = Concentration::milli_molar(kin->k_m.milli_molar() *
                                             mod.km_multiplier *
                                             assembly.km_tuning);
  layer.electrons = kin->electrons;
  layer.geometric_area = assembly.geometry.working_area;
  layer.working_material = assembly.geometry.working_material;
  layer.double_layer = Capacitance::farads(
      assembly.geometry.double_layer_capacitance().farads() *
      mod.area_enhancement);
  layer.blank_noise_rms = Current::amps(
      assembly.geometry.base_noise_per_mm2.amps() *
      assembly.geometry.working_area.square_millimeters() *
      mod.noise_multiplier * assembly.noise_tuning);
  layer.electron_transfer_rate = mod.electron_transfer_rate;
  layer.formal_potential = assembly.enzyme.formal_potential;
  layer.solution_resistance = assembly.geometry.solution_resistance;
  layer.area_enhancement = mod.area_enhancement;
  layer.interferent_transmission = mod.interferent_transmission;
  layer.environment = assembly.enzyme.environment;
  for (const chem::SubstrateKinetics& cross : assembly.enzyme.substrates) {
    if (cross.substrate == assembly.substrate) continue;
    auto cross_species = chem::try_species(cross.substrate);
    if (!cross_species) {
      return ctx("synthesize layer",
                 Expected<EffectiveLayer>(cross_species.error()));
    }
    layer.secondary.push_back(
        {cross.substrate, cross_species.value()->diffusivity, cross.k_cat,
         Concentration::milli_molar(cross.k_m.milli_molar() *
                                    mod.km_multiplier *
                                    assembly.km_tuning),
         cross.electrons});
  }
  return layer;
}

}  // namespace biosens::electrode
