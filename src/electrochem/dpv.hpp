// Differential pulse voltammetry (DPV) simulator.
//
// DPV superimposes short pulses on a slow staircase and reports the
// difference between the current at the end of each pulse and just
// before it. Faradaic currents respond to the potential change; the
// capacitive charging has decayed by the end of the pulse — so DPV
// suppresses exactly the background that limits plain voltammetry. The
// paper's survey cites it for the DNA-based cyclophosphamide sensor
// [32]; here it is available as an alternative technique for the CYP
// sensors (see bench_ext_dpv for the CV-vs-DPV comparison).
#pragma once

#include <vector>

#include "electrochem/cell.hpp"
#include "electrochem/waveform.hpp"

namespace biosens::electrochem {

/// A sampled differential trace: base staircase potential vs the
/// pulse-minus-base current difference.
struct DpvTrace {
  std::vector<double> potential_v;   ///< staircase base potential
  std::vector<double> delta_current_a;

  [[nodiscard]] std::size_t size() const { return potential_v.size(); }
  [[nodiscard]] bool empty() const { return potential_v.empty(); }
  /// Time between the pre-pulse and end-of-pulse samples of one step;
  /// sets how much low-frequency noise the subtraction cancels.
  double sample_gap_s = 0.075;
};

/// Numerical options for a DPV run.
struct DpvOptions {
  bool include_interferents = true;
  /// Residual (undecayed) fraction of the capacitive pulse transient at
  /// the end-of-pulse sample; ~exp(-t_pulse / (Rs * Cdl)).
  bool include_capacitive_residue = true;
};

/// One differential-pulse experiment on a cell.
class DifferentialPulseSim {
 public:
  DifferentialPulseSim(Cell cell, DifferentialPulse waveform,
                       DpvOptions options = {});

  /// Runs the staircase and returns the (noiseless) differential trace.
  /// Unknown sample species, degenerate layer kinetics, and environment
  /// violations come back as structured errors with the "dpv" context
  /// frame.
  [[nodiscard]] Expected<DpvTrace> try_run() const;

  /// The peak magnitude of the differential faradaic response per unit
  /// of underlying peak current: max over E of
  /// |shape(E + amplitude) - shape(E)| for the Laviron bell. The DPV
  /// calibration slope is the CV peak slope times this factor.
  [[nodiscard]] static double differential_shape_factor(
      Potential pulse_amplitude);

  [[nodiscard]] const Cell& cell() const { return cell_; }

 private:
  Cell cell_;
  DifferentialPulse waveform_;
  DpvOptions options_;
};

/// The platform's standard DPV program for CYP sensors: staircase from
/// +0.2 V to -0.6 V in -5 mV steps, -50 mV pulses, 100 ms period, 25 ms
/// pulse width.
[[nodiscard]] DifferentialPulse standard_cyp_dpv();

}  // namespace biosens::electrochem
