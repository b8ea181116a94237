#include "electrochem/cell.hpp"

#include <cmath>

#include "chem/environment.hpp"
#include "chem/species.hpp"
#include "common/error.hpp"
#include "transport/analytic.hpp"

namespace biosens::electrochem {
namespace {

/// Width of the sigmoidal onset of direct oxidation waves. Sharp enough
/// that interferent currents vanish ~100 mV below their onset, as on
/// real carbon electrodes.
constexpr double kOnsetWidthV = 0.025;

/// Electrons transferred in the direct oxidation of each interferent.
int oxidation_electrons(std::string_view species) {
  if (species == "hydrogen peroxide") return 2;
  if (species == "ascorbic acid") return 2;
  if (species == "uric acid") return 2;
  if (species == "paracetamol") return 2;
  return 1;
}

}  // namespace

std::optional<Potential> oxidation_onset(std::string_view species) {
  // Onset potentials on carbon electrodes vs Ag/AgCl; literature values
  // rounded. The enzymatic substrates themselves (glucose, drugs...) are
  // not directly electroactive below +0.8 V.
  if (species == "ascorbic acid") return Potential::millivolts(200.0);
  if (species == "uric acid") return Potential::millivolts(300.0);
  if (species == "paracetamol") return Potential::millivolts(450.0);
  if (species == "hydrogen peroxide") return Potential::millivolts(450.0);
  return std::nullopt;
}

Cell::Cell(electrode::EffectiveLayer layer, chem::Sample sample,
           Hydrodynamics hydro)
    : layer_(std::move(layer)), sample_(std::move(sample)), hydro_(hydro) {
  require<SpecError>(!layer_.substrate.empty(),
                     "cell layer has no substrate");
  if (hydro_.stirred) {
    require<SpecError>(hydro_.stir_rate_rpm > 0.0,
                       "stir rate must be positive when stirred");
  }
}

Concentration Cell::substrate_bulk() const {
  return sample_.concentration_of(layer_.substrate);
}

Expected<double> Cell::try_environment_factor() const {
  return ctx("environment factor",
             chem::try_relative_activity(layer_.environment, sample_.buffer(),
                                         sample_.dissolved_oxygen()));
}

double Cell::layer_thickness_m(Time elapsed) const {
  if (hydro_.stirred) {
    return transport::stirred_layer_thickness_m(hydro_.stir_rate_rpm);
  }
  // Quiescent: the depletion layer keeps growing; floor it at 1 um so the
  // earliest instants stay finite.
  const double delta = transport::quiescent_layer_thickness_m(
      layer_.substrate_diffusivity, elapsed);
  return std::max(delta, 1e-6);
}

Expected<std::vector<InterferentTerm>> Cell::try_interferent_terms() const {
  std::vector<InterferentTerm> terms;
  const double delta = layer_thickness_m(Time::seconds(30.0));
  for (const std::string& name : sample_.species_names()) {
    const auto onset = oxidation_onset(name);
    if (!onset.has_value()) continue;
    const Concentration c = sample_.concentration_of(name);
    if (c.milli_molar() <= 0.0) continue;
    auto species = chem::try_species(name);
    if (!species) {
      return ctx("interferent current",
                 Expected<std::vector<InterferentTerm>>(species.error()));
    }
    const chem::Species& sp = **species;
    auto j_lim = transport::try_limiting_current_density(
        oxidation_electrons(name), sp.diffusivity, c, delta);
    if (!j_lim) {
      return ctx("interferent current",
                 Expected<std::vector<InterferentTerm>>(j_lim.error()));
    }
    terms.push_back({onset->volts(), (*j_lim).amps_per_m2()});
  }
  return terms;
}

double Cell::interferent_current_amps(std::span<const InterferentTerm> terms,
                                      double applied_v) const {
  double total = 0.0;
  for (const InterferentTerm& term : terms) {
    const double gate =
        1.0 / (1.0 + std::exp(-(applied_v - term.onset_v) / kOnsetWidthV));
    total += term.limiting_density_a_per_m2 * gate;
  }
  return total * layer_.geometric_area.square_meters() *
         layer_.interferent_transmission;
}

Expected<Current> Cell::try_interferent_current(Potential applied) const {
  auto terms = try_interferent_terms();
  if (!terms) return Expected<Current>(terms.error());
  return Current::amps(
      interferent_current_amps(*terms, applied.volts()));
}

Current Cell::capacitive_step_current(Potential delta,
                                      Time since_step) const {
  require<NumericsError>(since_step.seconds() >= 0.0,
                         "time since step must be non-negative");
  const double tau = layer_.solution_resistance.ohms() *
                     layer_.double_layer.farads();
  if (tau <= 0.0) return Current{};
  const double i0 = delta.volts() / layer_.solution_resistance.ohms();
  return Current::amps(i0 * std::exp(-since_step.seconds() / tau));
}

Current Cell::capacitive_sweep_current(ScanRate slope) const {
  return Current::amps(layer_.double_layer.farads() *
                       slope.volts_per_second());
}

}  // namespace biosens::electrochem
