#include "electrochem/chronoamperometry.hpp"

#include <algorithm>
#include <cmath>

#include "common/annotations.hpp"
#include "common/constants.hpp"
#include "common/error.hpp"
#include "obs/span.hpp"
#include "transport/diffusion.hpp"

namespace biosens::electrochem {

PotentialStep standard_oxidase_step(Time hold) {
  return PotentialStep(Potential::volts(0.0), Potential::millivolts(650.0),
                       hold);
}

ChronoamperometrySim::ChronoamperometrySim(Cell cell, PotentialStep waveform,
                                           ChronoOptions options)
    : cell_(std::move(cell)), waveform_(waveform), options_(options) {
  require<SpecError>(options.duration.seconds() > 0.0,
                     "duration must be positive");
  require<SpecError>(options.dt.seconds() > 0.0, "dt must be positive");
  require<SpecError>(options.dt.seconds() < options.duration.seconds(),
                     "dt must be below the duration");
  require<SpecError>(options.grid_nodes >= 3, "grid too coarse");
}

BIOSENS_HOT Expected<TimeSeries> ChronoamperometrySim::try_run() const {
  obs::ObsSpan span(Layer::kElectrochem, "chrono-sweep");
  const electrode::EffectiveLayer& layer = cell_.layer();
  auto kinetics_result = span.watch(layer.try_kinetics());
  if (!kinetics_result) {
    return ctx("chronoamperometry",
               Expected<TimeSeries>(kinetics_result.error()));
  }
  const chem::MichaelisMenten& kinetics = *kinetics_result;
  const double gamma = layer.wired_coverage.mol_per_m2();
  const double n_f =
      layer.electrons * constants::kFaraday;

  // Domain: in a stirred cell the Nernst layer *is* the domain (bulk
  // clamped at its outer edge); quiescent cells get a domain that
  // comfortably contains the final depletion layer.
  const bool stirred = cell_.hydrodynamics().stirred;
  transport::DiffusionGrid grid;
  grid.nodes = options_.grid_nodes;
  grid.length_m =
      stirred ? cell_.layer_thickness_m(options_.duration)
              : transport::recommended_domain_length_m(
                    layer.substrate_diffusivity, options_.duration);

  transport::DiffusionField field(layer.substrate_diffusivity, grid,
                                  cell_.substrate_bulk());

  auto activity_result = span.watch(cell_.try_environment_factor());
  if (!activity_result) {
    return ctx("chronoamperometry",
               Expected<TimeSeries>(activity_result.error()));
  }
  const double activity = *activity_result;
  const auto surface_flux = [&](double surface_mm) {
    return activity *
           kinetics.areal_flux(
               SurfaceCoverage::mol_per_m2(gamma),
               Concentration::milli_molar(std::max(surface_mm, 0.0)));
  };

  const Potential step_height = waveform_.step() - waveform_.rest();
  Current interferents;
  if (options_.include_interferents) {
    auto i = span.watch(cell_.try_interferent_current(waveform_.step()));
    if (!i) return ctx("chronoamperometry", Expected<TimeSeries>(i.error()));
    interferents = *i;
  }

  TimeSeries trace;
  const auto steps = static_cast<std::size_t>(
      options_.duration.seconds() / options_.dt.seconds());
  trace.time_s.reserve(steps);
  trace.current_a.reserve(steps);

  // One span around the whole stepping loop, never per step: the solver
  // inner loop is the perf-gated hot path (bench_sim_kernels).
  const obs::ObsSpan stepping(Layer::kTransport, "cn-stepping");
  double t = 0.0;
  for (std::size_t k = 0; k < steps; ++k) {
    const double flux = field.step_reactive_surface(options_.dt, surface_flux);
    t += options_.dt.seconds();

    double current =
        n_f * flux * layer.geometric_area.square_meters() +
        interferents.amps();
    if (options_.include_capacitive) {
      current += cell_.capacitive_step_current(step_height, Time::seconds(t))
                     .amps();
    }
    trace.push(t, current);
  }
  return trace;
}

Expected<Current> ChronoamperometrySim::try_steady_state() const {
  return ctx("steady state", try_run().and_then([](const TimeSeries& trace) {
    return trace.try_tail_mean_a(0.1).map(
        [](double amps) { return Current::amps(amps); });
  }));
}

Time ChronoamperometrySim::response_time_95() const {
  const TimeSeries trace = try_run().value();
  require<AnalysisError>(!trace.empty(), "empty trace");
  const double final_value = trace.try_tail_mean_a(0.05).value();
  if (std::abs(final_value) <= 0.0) return Time::seconds(0.0);
  // The answer is the first index from which the signal *stays* within
  // 5% of the final value — i.e. one past the last excursion. A single
  // reverse scan finds that last excursion; the old forward walk
  // restarted an inner scan at every candidate (quadratic on noisy
  // traces that brush the band repeatedly).
  const double band = 0.05 * std::abs(final_value);
  for (std::size_t i = trace.size(); i-- > 0;) {
    if (std::abs(trace.current_a[i] - final_value) > band) {
      // Sample i is the last excursion; settled from i + 1 (or never,
      // when the final sample itself is outside the band).
      return Time::seconds(i + 1 < trace.size() ? trace.time_s[i + 1]
                                                : trace.time_s.back());
    }
  }
  return Time::seconds(trace.time_s.front());
}

}  // namespace biosens::electrochem
