// Closed-form mass-transport references.
//
// These serve two roles: (1) analytic ground truth for validating the
// numerical diffusion solver, and (2) fast-path models where the full PDE
// is unnecessary (steady-state amperometry in a stirred cell).
#pragma once

#include "common/expected.hpp"
#include "common/units.hpp"

namespace biosens::transport {

/// Cottrell current density for a diffusion-limited potential step on a
/// planar electrode: j(t) = n*F*c*sqrt(D/(pi*t)).
///
/// @param electrons number of electrons per molecule oxidized
/// @param d         diffusion coefficient of the electroactive species
/// @param bulk      bulk concentration
/// @param t         time since the step; must be > 0
///
/// The t = 0 singularity is a transport-layer numerics error, a non-positive
/// electron count a spec error.
[[nodiscard]] Expected<CurrentDensity> try_cottrell_current_density(
    int electrons, Diffusivity d, Concentration bulk, Time t);

/// Steady-state diffusion-limited current density across a Nernst
/// diffusion layer of thickness delta: j = n*F*D*c/delta. A non-
/// positive thickness is a transport-layer numerics error, a non-positive
/// electron count a spec error.
[[nodiscard]] Expected<CurrentDensity> try_limiting_current_density(
    int electrons, Diffusivity d, Concentration bulk, double delta_m);

/// Nernst diffusion-layer thickness of a stirred cell. Gentle magnetic
/// stirring gives delta of order 10-50 um; quiescent solutions grow
/// delta = sqrt(pi*D*t) with time.
[[nodiscard]] double stirred_layer_thickness_m(double stir_rate_rpm);

/// Diffusion-layer thickness of a quiescent solution after time t.
[[nodiscard]] double quiescent_layer_thickness_m(Diffusivity d, Time t);

/// Koutecky-Levich combination of a kinetic and a mass-transport limited
/// current density: 1/j = 1/j_kin + 1/j_lim. Either argument being zero
/// yields zero.
[[nodiscard]] CurrentDensity koutecky_levich(CurrentDensity j_kinetic,
                                             CurrentDensity j_limiting);

}  // namespace biosens::transport
