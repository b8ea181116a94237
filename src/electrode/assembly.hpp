// Functionalized-electrode assembly: geometry + nanomaterial modification
// + immobilized enzyme -> the effective catalytic layer the
// electrochemical simulators consume.
//
// This is the library's embodiment of the paper's platform idea: the
// *chemical* component (enzyme + modification on a geometry) is specified
// independently of the *electrical* component (readout chain), and the
// two meet only through the EffectiveLayer interface.
#pragma once

#include <string>
#include <vector>

#include "chem/enzyme.hpp"
#include "chem/kinetics.hpp"
#include "common/units.hpp"
#include "electrode/geometry.hpp"
#include "electrode/immobilization.hpp"
#include "electrode/modification.hpp"

namespace biosens::electrode {

/// Full chemical-side specification of one working electrode.
struct Assembly {
  Geometry geometry;
  Modification modification;
  Immobilization immobilization;
  chem::Enzyme enzyme;
  std::string substrate;  ///< species the enzyme is deployed against
  /// Deposited enzyme amount in equivalent monolayers of the *geometric*
  /// area; values above immobilization.max_monolayers are rejected.
  double loading_monolayers = 1.0;
  /// Device-specific film-tuning factor on the apparent K_M on top of the
  /// modification's default (catalog calibration knob).
  double km_tuning = 1.0;
  /// Device-specific blank-noise calibration factor.
  double noise_tuning = 1.0;

  /// Validates the composition; an electrode-layer spec error when
  /// inconsistent (unknown substrate for the enzyme, loading above the
  /// method's limit, non-physical descriptors).
  [[nodiscard]] Expected<void> try_validate() const;
};

/// A non-primary substrate the immobilized enzyme also turns over
/// (cross-reactivity); drives the panel-deconvolution machinery.
struct CrossActivity {
  std::string substrate;
  Diffusivity diffusivity;
  Rate k_cat;
  Concentration k_m_app;
  int electrons = 1;
};

/// The synthesized catalytic layer: everything the electrochemical
/// simulators need to produce a current, with immobilization and
/// nanomaterial effects already folded in.
struct EffectiveLayer {
  /// Species this layer turns over, and its solution diffusivity.
  std::string substrate;
  Diffusivity substrate_diffusivity;
  /// Electrically wired enzyme coverage per geometric area.
  SurfaceCoverage wired_coverage;
  Rate k_cat_app;          ///< apparent turnover of the wired enzyme
  Concentration k_m_app;   ///< apparent Michaelis constant of the film
  int electrons = 2;       ///< electrons per turnover at the electrode
  Area geometric_area;
  Material working_material = Material::kGraphite;
  Capacitance double_layer;      ///< of the modified surface
  Current blank_noise_rms;       ///< electrode-level background noise
  Rate electron_transfer_rate;   ///< Laviron k_s of the modified surface
  Potential formal_potential;    ///< redox couple position (vs Ag/AgCl)
  Resistance solution_resistance;
  /// Electroactive-to-geometric area ratio of the film; the porous-film
  /// mass-transport ceiling of voltammetric peaks scales with it.
  double area_enhancement = 1.0;
  /// Interferent flux transmitted through the film (permselectivity).
  double interferent_transmission = 1.0;
  /// O2 / pH / temperature response of the immobilized enzyme.
  chem::EnvironmentSensitivity environment;
  /// Other substrates the enzyme turns over (same coverage, own
  /// kinetics) — cross-reactivity in multi-drug panels.
  std::vector<CrossActivity> secondary;

  /// Apparent Michaelis-Menten law of the layer: the chem-layer spec
  /// error of a degenerate rate law, attributed through the electrode
  /// layer's context.
  [[nodiscard]] Expected<chem::MichaelisMenten> try_kinetics() const;

  /// Kinetically limited catalytic current density at a substrate
  /// concentration: j = n * F * Gamma_wired * v(S), with `kin` the law
  /// try_kinetics() built (hoisted out of sweep loops by the caller).
  [[nodiscard]] CurrentDensity catalytic_current_density(
      const chem::MichaelisMenten& kin, Concentration substrate_conc) const;

  /// Kinetically limited catalytic current (density times area).
  [[nodiscard]] Current catalytic_current(
      const chem::MichaelisMenten& kin, Concentration substrate_conc) const;

  /// Low-concentration sensitivity of the layer alone (no transport
  /// limit): n * F * Gamma * k_cat / K_M, in canonical units.
  [[nodiscard]] Sensitivity intrinsic_sensitivity() const;
};

/// Synthesizes the effective layer of an assembly. `age` models sensor
/// aging: activity decays as exp(-decay * age) (zero by default).
/// Validation and species-lookup failures come back as structured errors
/// with the "synthesize layer" context frame.
[[nodiscard]] Expected<EffectiveLayer> try_synthesize(
    const Assembly& assembly, Time age = Time::seconds(0.0));

}  // namespace biosens::electrode
