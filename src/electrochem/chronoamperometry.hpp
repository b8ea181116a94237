// Chronoamperometry simulator: the oxidase-sensor measurement.
//
// The working electrode is stepped to +650 mV and held; the enzyme layer
// consumes substrate at its Michaelis-Menten rate while diffusion
// replenishes it across the Nernst layer. The recorded current is the sum
// of the enzymatic (faradaic) component, the double-layer charging
// transient of the step edge, and the direct oxidation of interferents.
//
// The substrate field is solved with the Crank-Nicolson scheme of
// transport::DiffusionField; in a stirred cell the domain is exactly the
// Nernst layer with the bulk clamped at its outer edge, so the long-time
// current converges to the Koutecky-Levich combination of the kinetic and
// transport-limited currents.
#pragma once

#include "electrochem/cell.hpp"
#include "electrochem/trace.hpp"
#include "electrochem/waveform.hpp"

namespace biosens::electrochem {

/// Numerical and protocol options for a chronoamperometric run.
struct ChronoOptions {
  Time duration = Time::seconds(30.0);
  /// Also the readout's sample period: the white-noise rms, and with it
  /// the LOD, depends on it.
  Time dt = Time::milliseconds(25.0);
  /// Sized for the stirred cell's Nernst-layer domain: the smallest count
  /// at which every chrono row of full_catalog() keeps its reading within
  /// 1e-6, t95 within 2 dt, the trace from 0.5 s within 1% of the final
  /// current and the peak within 1% of a 320-node run
  /// (test_chrono_convergence, docs/PHYSICS.md §3). A quiescent run's
  /// 6 sqrt(D t) domain is far wider: it needs >= 80 nodes to keep its
  /// tail within 0.04% and t95 within 25 ms of a 640-node run.
  std::size_t grid_nodes = 20;
  bool include_capacitive = true;
  bool include_interferents = true;
};

/// One chronoamperometric experiment on a cell.
class ChronoamperometrySim {
 public:
  ChronoamperometrySim(Cell cell, PotentialStep waveform,
                       ChronoOptions options = {});

  /// Runs the experiment and returns the (noiseless) current trace.
  /// Deterministic; noise is the readout chain's responsibility.
  /// Chem-layer environment / co-substrate violations and layer-kinetics
  /// spec errors surface as structured errors with the
  /// "chronoamperometry" context frame.
  [[nodiscard]] Expected<TimeSeries> try_run() const;

  /// Steady-state current: mean of the trailing 10% of the trace.
  [[nodiscard]] Expected<Current> try_steady_state() const;

  /// Time at which the enzymatic current first reaches 95% of its final
  /// value — the sensor response time (miniaturized cells respond
  /// faster; ablation A2).
  [[nodiscard]] Time response_time_95() const;

 private:
  Cell cell_;
  PotentialStep waveform_;
  ChronoOptions options_;
};

/// The platform's standard oxidase protocol: step from rest (0 V) to
/// +650 mV, hold for `hold`.
[[nodiscard]] PotentialStep standard_oxidase_step(
    Time hold = Time::seconds(30.0));

}  // namespace biosens::electrochem
