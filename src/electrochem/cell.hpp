// The electrochemical cell: a functionalized electrode immersed in a
// sample, with its hydrodynamics and background current contributions.
//
// The cell computes everything that is *not* the enzymatic signal: the
// direct oxidation of electroactive interferents (ascorbate, urate,
// paracetamol) at the applied potential, the double-layer charging
// current, and the mass-transport environment (Nernst layer thickness)
// the enzymatic simulators run in.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "chem/solution.hpp"
#include "common/units.hpp"
#include "electrode/assembly.hpp"

namespace biosens::electrochem {

/// Convection state of the sample.
struct Hydrodynamics {
  bool stirred = true;
  double stir_rate_rpm = 200.0;
};

/// One precomputed direct-oxidation interferent: its onset potential and
/// diffusion-limited current density. The species/registry lookups are
/// paid once building these; a sweep loop then evaluates pure arithmetic
/// per point (see Cell::interferent_current_amps).
struct InterferentTerm {
  double onset_v = 0.0;
  double limiting_density_a_per_m2 = 0.0;
};

/// A ready-to-measure cell.
class Cell {
 public:
  Cell(electrode::EffectiveLayer layer, chem::Sample sample,
       Hydrodynamics hydro = {});

  /// Faradaic current from direct interferent electro-oxidation at the
  /// applied potential. Each interferent contributes its diffusion-
  /// limited current gated by a sigmoidal onset in potential and
  /// attenuated by the film's permselectivity. Unknown sample species
  /// surface as structured chem-layer errors.
  [[nodiscard]] Expected<Current> try_interferent_current(
      Potential applied) const;

  /// Precomputes the interferent terms once, so potential-sweep loops
  /// can evaluate interferent_current_amps() per point without species
  /// lookups or allocation. Terms are in sorted species order; the sum
  /// over them reproduces try_interferent_current() bit-for-bit.
  [[nodiscard]] Expected<std::vector<InterferentTerm>>
  try_interferent_terms() const;

  /// Gated interferent current [A] at `applied_v` from precomputed
  /// terms — the allocation-free sweep-loop evaluator.
  [[nodiscard]] double interferent_current_amps(
      std::span<const InterferentTerm> terms, double applied_v) const;

  /// Double-layer charging transient after a potential step of height
  /// `delta`, at `since_step` after the edge: (dV/Rs) * exp(-t/(Rs*Cdl)).
  [[nodiscard]] Current capacitive_step_current(Potential delta,
                                                Time since_step) const;

  /// Double-layer charging current during a sweep: C_dl * dE/dt.
  [[nodiscard]] Current capacitive_sweep_current(ScanRate slope) const;

  /// Nernst diffusion-layer thickness for the current hydrodynamics;
  /// quiescent cells use the value at `elapsed`.
  [[nodiscard]] double layer_thickness_m(Time elapsed) const;

  /// Bulk concentration of the layer's substrate in this sample.
  [[nodiscard]] Concentration substrate_bulk() const;

  /// Enzyme activity of the layer under this sample's conditions
  /// (dissolved O2, pH, temperature), relative to the reference
  /// calibration buffer (see chem/environment.hpp). The chem layer's
  /// co-substrate / environment spec errors pass through with this
  /// cell's context frame attached.
  [[nodiscard]] Expected<double> try_environment_factor() const;

  [[nodiscard]] const electrode::EffectiveLayer& layer() const {
    return layer_;
  }
  [[nodiscard]] const chem::Sample& sample() const { return sample_; }
  [[nodiscard]] const Hydrodynamics& hydrodynamics() const { return hydro_; }

 private:
  electrode::EffectiveLayer layer_;
  chem::Sample sample_;
  Hydrodynamics hydro_;
};

/// Onset potential (vs Ag/AgCl) for the direct electro-oxidation of a
/// species on carbon/gold; nullopt when the species is not directly
/// electroactive in the sensing window.
[[nodiscard]] std::optional<Potential> oxidation_onset(
    std::string_view species);

}  // namespace biosens::electrochem
