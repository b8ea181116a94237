// Enzyme reaction-rate laws.
//
// The surface-confined enzymatic flux is the chemical heart of every
// sensor model: in the kinetically limited regime its linearization sets
// the sensitivity, and its saturation (Michaelis-Menten) sets the upper
// end of the linear range.
#pragma once

#include "common/expected.hpp"
#include "common/units.hpp"

namespace biosens::chem {

/// Michaelis-Menten rate law for a surface-immobilized enzyme layer.
///
/// The layer is characterized by an *apparent* turnover and Michaelis
/// constant, which already fold in immobilization losses and the
/// diffusion barrier of the film (see electrode::EffectiveLayer).
class MichaelisMenten {
 public:
  /// Validates the parameters and builds the rate law from the apparent
  /// turnover number `k_cat` of the immobilized enzyme and the apparent
  /// Michaelis constant `k_m`; a chem-layer spec error when k_cat or K_M
  /// is non-positive (the degenerate-enzyme case every simulator must
  /// refuse to run on).
  [[nodiscard]] static Expected<MichaelisMenten> try_create(
      Rate k_cat, Concentration k_m);

  /// Per-enzyme turnover rate v(S) = k_cat * S / (K_M + S)  [1/s].
  [[nodiscard]] double turnover_per_second(Concentration substrate) const;

  /// Areal molar flux of product for an enzyme coverage Gamma:
  /// J = Gamma * v(S)   [mol m^-2 s^-1].
  [[nodiscard]] double areal_flux(SurfaceCoverage gamma,
                                  Concentration substrate) const;

  /// Slope of v(S) at S -> 0, i.e. k_cat / K_M  [1/s per (mol/m^3)].
  [[nodiscard]] double linear_slope() const;

  /// Relative deviation of v(S) from its tangent at the origin:
  /// 1 - v(S)/(slope*S) = S / (K_M + S). Used by linear-range analysis.
  [[nodiscard]] double linearity_deviation(Concentration substrate) const;

  /// Largest concentration whose deviation from linearity does not exceed
  /// `max_deviation` (e.g. 0.05 for the conventional 5% criterion):
  /// S* = max_deviation/(1-max_deviation) * K_M. A chem-layer spec
  /// error unless max_deviation is in (0, 1).
  [[nodiscard]] Expected<Concentration> try_linear_limit(
      double max_deviation) const;

  [[nodiscard]] Rate k_cat() const { return k_cat_; }
  [[nodiscard]] Concentration k_m() const { return k_m_; }

 private:
  struct Unchecked {};
  MichaelisMenten(Rate k_cat, Concentration k_m, Unchecked)
      : k_cat_(k_cat), k_m_(k_m) {}

  Rate k_cat_;
  Concentration k_m_;
};

/// Competitive inhibition: K_M is scaled by (1 + [I]/K_I). Returns the
/// apparent Michaelis constant in the presence of inhibitor concentration
/// `inhibitor` with inhibition constant `k_i`.
[[nodiscard]] Concentration competitive_km(Concentration k_m,
                                           Concentration inhibitor,
                                           Concentration k_i);

/// Substrate-inhibition rate law v(S) = k_cat*S / (K_M + S + S^2/K_SI),
/// relevant for some oxidases at high substrate. Returns turnovers per
/// second.
[[nodiscard]] double substrate_inhibited_turnover(Rate k_cat,
                                                  Concentration k_m,
                                                  Concentration k_si,
                                                  Concentration substrate);

}  // namespace biosens::chem
