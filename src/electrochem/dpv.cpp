#include "electrochem/dpv.hpp"

#include <algorithm>
#include <cmath>

#include "common/annotations.hpp"
#include "common/constants.hpp"
#include "common/error.hpp"
#include "obs/span.hpp"

namespace biosens::electrochem {
namespace {

/// Reduced fraction of a Nernstian surface couple at overpotential x
/// (x = nF(E - E0)/RT): f = 1/(1 + e^x).
double reduced_fraction(double x) { return 1.0 / (1.0 + std::exp(x)); }

}  // namespace

DifferentialPulse standard_cyp_dpv() {
  return DifferentialPulse(
      Potential::millivolts(200.0), Potential::millivolts(-600.0),
      Potential::millivolts(-5.0), Potential::millivolts(-50.0),
      Time::milliseconds(200.0), Time::milliseconds(50.0));
}

DifferentialPulseSim::DifferentialPulseSim(Cell cell,
                                           DifferentialPulse waveform,
                                           DpvOptions options)
    : cell_(std::move(cell)), waveform_(waveform), options_(options) {}

double DifferentialPulseSim::differential_shape_factor(
    Potential pulse_amplitude) {
  const double a = pulse_amplitude.volts() / constants::kThermalVoltage;
  // |f(x + a) - f(x)| is maximal at x = -a/2 by symmetry.
  return std::abs(reduced_fraction(a / 2.0) - reduced_fraction(-a / 2.0));
}

BIOSENS_HOT Expected<DpvTrace> DifferentialPulseSim::try_run() const {
  obs::ObsSpan span(Layer::kElectrochem, "dpv-sweep");
  const electrode::EffectiveLayer& layer = cell_.layer();
  // Pre-flight the fallible ingredients once (see VoltammetrySim).
  if (auto v = span.watch(chem::try_validate_species(cell_.sample())); !v) {
    return ctx("dpv", Expected<DpvTrace>(v.error()));
  }
  auto kin = span.watch(layer.try_kinetics());
  if (!kin) {
    return ctx("dpv", Expected<DpvTrace>(kin.error()));
  }
  auto activity = span.watch(cell_.try_environment_factor());
  if (!activity) return ctx("dpv", Expected<DpvTrace>(activity.error()));

  const double n = layer.electrons;
  const double f_over_rt = 1.0 / constants::kThermalVoltage;

  // Surface-charge term: pulsing by dE re-equilibrates the adsorbed
  // couple; the redistributed charge nFA*Gamma*df flows within the
  // pulse, giving an average current nFA*Gamma*df / t_pulse.
  const double q_full = n * constants::kFaraday *
                        layer.geometric_area.square_meters() *
                        layer.wired_coverage.mol_per_m2();
  const double t_pulse = waveform_.pulse_width().seconds();

  // Catalytic term: the EC' current flows in proportion to the reduced
  // fraction of the heme; pulsing changes that fraction. Cross-reactive
  // substrates add their own turnover; the whole term scales with the
  // sample-condition activity.
  double catalytic =
      layer.catalytic_current(*kin, cell_.substrate_bulk()).amps();
  for (const electrode::CrossActivity& cross : layer.secondary) {
    const Concentration c =
        cell_.sample().concentration_of(cross.substrate);
    if (c.milli_molar() <= 0.0) continue;
    catalytic += cross.electrons * constants::kFaraday *
                 layer.wired_coverage.mol_per_m2() *
                 cross.k_cat.per_second() * c.milli_molar() /
                 (cross.k_m_app.milli_molar() + c.milli_molar()) *
                 layer.geometric_area.square_meters();
  }
  catalytic *= *activity;

  const double amp = waveform_.pulse_amplitude().volts();
  const double e0 = layer.formal_potential.volts();

  // Capacitive residue of the pulse edge at the end-of-pulse sample.
  const double tau = layer.solution_resistance.ohms() *
                     layer.double_layer.farads();
  const double cap_residue =
      options_.include_capacitive_residue && tau > 0.0
          ? amp / layer.solution_resistance.ohms() *
                std::exp(-t_pulse / tau)
          : 0.0;

  // Hoist the interferent species/registry lookups out of the staircase
  // loop (they were paid twice per step: pulse and base sample).
  std::vector<InterferentTerm> interferent_terms;
  if (options_.include_interferents) {
    auto terms = span.watch(cell_.try_interferent_terms());
    if (!terms) return ctx("dpv", Expected<DpvTrace>(terms.error()));
    interferent_terms = *std::move(terms);
  }

  DpvTrace trace;
  trace.sample_gap_s = t_pulse;
  const std::size_t steps = waveform_.step_count();
  trace.potential_v.reserve(steps);
  trace.delta_current_a.reserve(steps);

  const double e_start =
      waveform_.at(Time::seconds(0.0)).volts();
  const double step_v =
      (waveform_.at(Time::seconds(waveform_.step_period().seconds() * 1.5))
           .volts() -
       e_start);

  for (std::size_t k = 0; k < steps; ++k) {
    const double e_base = e_start + static_cast<double>(k) * step_v;
    const double x_base = n * f_over_rt * (e_base - e0);
    const double x_pulse = n * f_over_rt * (e_base + amp - e0);
    const double df =
        reduced_fraction(x_pulse) - reduced_fraction(x_base);

    // Reduction currents are negative by our sign convention.
    double delta = -(q_full / t_pulse + catalytic) * df;
    delta += cap_residue;
    if (options_.include_interferents) {
      delta +=
          cell_.interferent_current_amps(interferent_terms, e_base + amp) -
          cell_.interferent_current_amps(interferent_terms, e_base);
    }
    trace.potential_v.push_back(e_base);
    trace.delta_current_a.push_back(delta);
  }
  return trace;
}

}  // namespace biosens::electrochem
