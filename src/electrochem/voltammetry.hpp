// Cyclic voltammetry simulator: the CYP-sensor measurement.
//
// A linear-sweep potential is applied forward and backward (Section 3.1);
// the recorded hysteresis loop carries three contributions:
//  - the surface-confined redox of the immobilized heme protein — a
//    Laviron-shaped anodic/cathodic peak pair whose separation grows when
//    the sweep outruns the heterogeneous electron-transfer rate k_s;
//  - the catalytic (EC') current of substrate turnover, which grows the
//    cathodic peak proportionally to drug concentration at low
//    concentration — the paper's "peak height is proportional to drug
//    concentration";
//  - the capacitive box C_dl * nu and direct interferent oxidation.
//
// The catalytic component is capped by substrate mass transport through a
// Randles-Sevcik term scaled by the porous film's electroactive area —
// the physical reason CNT films reach sensitivities a planar electrode
// cannot.
#pragma once

#include "electrochem/cell.hpp"
#include "electrochem/trace.hpp"
#include "electrochem/waveform.hpp"

namespace biosens::electrochem {

/// Numerical and protocol options for a voltammetric run.
struct VoltammetryOptions {
  /// Sample points per half-sweep.
  std::size_t points_per_sweep = 600;
  bool include_capacitive = true;
  bool include_interferents = true;
};

/// One cyclic-voltammetry experiment on a cell.
class VoltammetrySim {
 public:
  VoltammetrySim(Cell cell, CyclicSweep waveform,
                 VoltammetryOptions options = {});

  /// Runs the sweep and returns the (noiseless) voltammogram. Points are
  /// in sweep order: forward branch first, reverse branch after
  /// turning_index. Unknown sample species, degenerate layer kinetics,
  /// and environment violations come back as structured errors with the
  /// "voltammetry" context frame.
  [[nodiscard]] Expected<Voltammogram> try_run() const;

  /// Laviron peak separation at the configured scan rate [V]; zero in
  /// the reversible (fast k_s) limit.
  [[nodiscard]] Potential peak_separation() const;

  /// Kinetic catalytic current density combined with the porous-film
  /// Randles-Sevcik transport ceiling at bulk concentration `c`, with
  /// `kin` the layer's law from try_kinetics().
  [[nodiscard]] CurrentDensity catalytic_peak_density(
      const chem::MichaelisMenten& kin, Concentration c) const;

  [[nodiscard]] const Cell& cell() const { return cell_; }

 private:
  Cell cell_;
  CyclicSweep waveform_;
  VoltammetryOptions options_;
};

/// The platform's standard CYP protocol: cycle between +0.2 V and -0.6 V
/// at 50 mV/s (covers every CYP isoform's formal potential).
[[nodiscard]] CyclicSweep standard_cyp_sweep(
    ScanRate rate = ScanRate::millivolts_per_second(50.0));

/// Randles-Sevcik peak current density for a planar diffusive wave:
/// j_p = 0.446 * n * F * c * sqrt(n * F * nu * D / (R * T)).
[[nodiscard]] CurrentDensity randles_sevcik_density(int electrons,
                                                    Diffusivity d,
                                                    Concentration c,
                                                    ScanRate nu);

}  // namespace biosens::electrochem
