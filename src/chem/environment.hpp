// Environmental response of the enzyme layer.
//
// Physiological fluids are not calibration buffer: dissolved oxygen,
// temperature and pH all modulate enzymatic activity. Oxidases consume
// O2 as their co-substrate (the classic limitation of first-generation
// glucose sensors in hypoxic tissue); every enzyme has a pH optimum and
// an Arrhenius temperature response. The factor computed here is
// *normalized to the reference calibration conditions* (PBS pH 7.4,
// 25 degC, air-saturated O2), so calibrations transfer exactly at
// reference and the model predicts the error everywhere else.
#pragma once

#include "chem/solution.hpp"
#include "common/expected.hpp"
#include "common/units.hpp"

namespace biosens::chem {

/// Per-enzyme environmental coefficients.
struct EnvironmentSensitivity {
  /// Michaelis constant for dissolved O2 (oxidases); zero marks the
  /// enzyme oxygen-independent (CYPs take their electrons from the
  /// electrode).
  Concentration oxygen_km;
  /// pH optimum and Gaussian width of the activity-vs-pH bell.
  double ph_optimum = 7.4;
  double ph_width = 1.5;
  /// Arrhenius activation energy [kJ/mol] of k_cat.
  double activation_energy_kj_mol = 35.0;
};

/// Reference conditions the calibrations are performed at.
[[nodiscard]] Buffer reference_buffer();

/// Air-saturated dissolved oxygen at the reference temperature.
[[nodiscard]] Concentration air_saturated_oxygen();

/// Raw (unnormalized) activity multiplier at the given conditions. A
/// chem-layer spec error on degenerate coefficients — and on the
/// co-substrate violation an oxidase cannot physically measure through:
/// an anoxic sample (dissolved O2 exactly zero) presented to an
/// O2-dependent enzyme.
[[nodiscard]] Expected<double> try_raw_activity(
    const EnvironmentSensitivity& env, const Buffer& buffer,
    Concentration dissolved_oxygen);

/// Activity relative to the reference conditions: 1.0 in calibration
/// buffer, < 1 in hypoxic / cold / off-pH samples.
[[nodiscard]] Expected<double> try_relative_activity(
    const EnvironmentSensitivity& env, const Buffer& buffer,
    Concentration dissolved_oxygen);

}  // namespace biosens::chem
