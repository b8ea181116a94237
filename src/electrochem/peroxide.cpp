#include "electrochem/peroxide.hpp"

#include <algorithm>
#include <cmath>

#include "chem/species.hpp"
#include "common/constants.hpp"
#include "common/error.hpp"
#include "transport/diffusion.hpp"

namespace biosens::electrochem {

double peroxide_rate_constant_m_per_s(electrode::Material material) {
  // Heterogeneous H2O2 oxidation at +650 mV vs Ag/AgCl; platinum is
  // catalytic, carbons are decent, plain gold is poor — the ordering
  // behind the [16] remark the paper quotes.
  switch (material) {
    case electrode::Material::kPlatinum:
      return 6.0e-4;
    case electrode::Material::kGlassyCarbon:
      return 1.5e-4;
    case electrode::Material::kGraphite:
      return 1.2e-4;
    case electrode::Material::kGold:
      return 2.5e-5;
  }
  return 1.0e-4;
}

PeroxideChronoSim::PeroxideChronoSim(Cell cell, PeroxideOptions options)
    : cell_(std::move(cell)),
      options_(options),
      material_(cell_.layer().working_material) {
  require<SpecError>(options.duration.seconds() > 0.0 &&
                         options.dt.seconds() > 0.0 &&
                         options.dt.seconds() < options.duration.seconds(),
                     "invalid time stepping");
  require<SpecError>(options.grid_nodes >= 3, "grid too coarse");
}

double PeroxideChronoSim::electrode_rate_m_per_s() const {
  return options_.electrode_rate_m_per_s > 0.0
             ? options_.electrode_rate_m_per_s
             : peroxide_rate_constant_m_per_s(material_);
}

double PeroxideChronoSim::collection_efficiency() const {
  const double k_e = electrode_rate_m_per_s();
  const double d_p =
      chem::try_species("hydrogen peroxide").value()->diffusivity.m2_per_s();
  const double delta = cell_.layer_thickness_m(options_.duration);
  return k_e / (k_e + d_p / delta);
}

TimeSeries PeroxideChronoSim::run() const {
  const electrode::EffectiveLayer& layer = cell_.layer();
  const chem::MichaelisMenten kinetics = layer.try_kinetics().value();
  const double gamma = layer.wired_coverage.mol_per_m2();
  const double activity = cell_.try_environment_factor().value();
  const double k_e = electrode_rate_m_per_s();
  const double delta = cell_.layer_thickness_m(options_.duration);

  transport::DiffusionGrid grid{delta, options_.grid_nodes};
  transport::DiffusionField substrate(layer.substrate_diffusivity, grid,
                                      cell_.substrate_bulk());
  transport::DiffusionField peroxide(
      chem::try_species("hydrogen peroxide").value()->diffusivity, grid,
      Concentration::milli_molar(0.0));

  const auto enzymatic_flux = [&](double s0) {
    return activity *
           kinetics.areal_flux(
               SurfaceCoverage::mol_per_m2(gamma),
               Concentration::milli_molar(std::max(s0, 0.0)));
  };

  TimeSeries trace;
  const auto steps = static_cast<std::size_t>(
      options_.duration.seconds() / options_.dt.seconds());
  double t = 0.0;
  for (std::size_t k = 0; k < steps; ++k) {
    const double j_enzyme =
        substrate.step_reactive_surface(options_.dt, enzymatic_flux);
    // Peroxide surface balance: produced at j_enzyme, consumed by the
    // electrode at k_e * [P]_0. The affine sink is solved implicitly so
    // even catalytic (stiff) electrodes stay stable.
    peroxide.step_affine_surface(options_.dt, k_e, j_enzyme);
    t += options_.dt.seconds();

    const double p0 =
        peroxide.surface_concentration().milli_molar();
    // 2 electrons per H2O2 oxidized at the electrode.
    trace.push(t, 2.0 * constants::kFaraday * k_e * p0 *
                      layer.geometric_area.square_meters());
  }
  return trace;
}

Current PeroxideChronoSim::steady_state() const {
  return Current::amps(run().try_tail_mean_a(0.1).value());
}

}  // namespace biosens::electrochem
