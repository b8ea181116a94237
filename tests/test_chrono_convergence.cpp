// Grid convergence of the chronoamperometry solver.
//
// Two gates. First, the Crank-Nicolson scheme of transport::DiffusionField
// is second order in space: with the surface clamped, its flux converges
// on the Cottrell current at an observed order >= 1.8. Second, the
// default node count (ChronoOptions::grid_nodes) meets the stated
// accuracy on every chronoamperometric row of full_catalog(), measured
// against a 320-node run at the same dt, so any later change of the
// default is gated too (docs/PHYSICS.md §3).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iostream>
#include <string>

#include "chem/solution.hpp"
#include "common/constants.hpp"
#include "core/catalog.hpp"
#include "core/sensor.hpp"
#include "electrochem/chronoamperometry.hpp"
#include "transport/analytic.hpp"
#include "transport/diffusion.hpp"

namespace biosens {
namespace {

// --- spatial order against Cottrell ---------------------------------

struct CottrellRun {
  double dx_m;
  double rel_error;
};

// Diffusion-limited electrolysis to t = 5 s at dt = 1 ms: relative error
// of the simulated surface flux against the Cottrell equation.
CottrellRun cottrell_run(std::size_t nodes) {
  const Diffusivity d = Diffusivity::m2_per_s(6.7e-10);
  const Concentration bulk = Concentration::milli_molar(1.0);
  const Time t_end = Time::seconds(5.0);
  const Time dt = Time::milliseconds(1.0);
  transport::DiffusionGrid grid;
  grid.length_m = transport::recommended_domain_length_m(d, t_end);
  grid.nodes = nodes;
  transport::DiffusionField field(d, grid, bulk);
  const auto steps = static_cast<int>(std::lround(t_end.seconds() /
                                                  dt.seconds()));
  double flux = 0.0;
  for (int k = 0; k < steps; ++k) {
    flux = field.step_clamped_surface(dt, Concentration{});
  }
  const double analytic =
      transport::try_cottrell_current_density(1, d, bulk, t_end)
          .value()
          .amps_per_m2() /
      constants::kFaraday;
  return {field.node_spacing_m(), std::abs(flux - analytic) / analytic};
}

double observed_order(const CottrellRun& coarse, const CottrellRun& fine) {
  return std::log(coarse.rel_error / fine.rel_error) /
         std::log(coarse.dx_m / fine.dx_m);
}

// Finer than 100 nodes the dt error sets a floor and the observed order
// falls off (1.74, 1.25, 0.61 at 200, 400, 800), so the ladder stops
// there. There is no dt ladder: CN rings on a clamped step when
// D dt / dx^2 >> 1, and the chrono dt is fixed at the readout's sample
// period anyway.
TEST(ChronoConvergence, CrankNicolsonIsSecondOrderInSpace) {
  const CottrellRun n25 = cottrell_run(25);
  const CottrellRun n50 = cottrell_run(50);
  const CottrellRun n100 = cottrell_run(100);
  const double coarse = observed_order(n25, n50);
  const double fine = observed_order(n50, n100);
  EXPECT_GE(coarse, 1.8) << "errors " << n25.rel_error << " -> "
                         << n50.rel_error;
  EXPECT_GE(fine, 1.8) << "errors " << n50.rel_error << " -> "
                       << n100.rel_error;
  std::cout << "Cottrell relative error at 25/50/100 nodes: "
            << n25.rel_error << " " << n50.rel_error << " "
            << n100.rel_error << "; observed orders " << coarse << " "
            << fine << "\n";
}

// --- the default grid on the catalog's chrono rows ------------------

constexpr std::size_t kReferenceNodes = 320;

struct ChronoRun {
  electrochem::TimeSeries trace;
  double figure = 0.0;  ///< tail mean of the last 10%, as the reading uses
  double t95_s = 0.0;
  double peak_a = 0.0;  ///< peak |i|, which sets the autoranged gain
};

// The ideal run a chrono measurement of `sample` makes, built the way
// AmperometricTransducer builds it, at `nodes` grid nodes.
ChronoRun run_chrono(const core::BiosensorModel& sensor,
                     const chem::Sample& sample, std::size_t nodes) {
  const core::SensorSpec& spec = sensor.spec();
  const core::MeasurementOptions options;
  electrochem::ChronoOptions chrono = options.chrono;
  chrono.duration = spec.ca_hold;
  chrono.grid_nodes = nodes;
  const electrochem::PotentialStep step(Potential::volts(0.0),
                                        spec.ca_step_potential, spec.ca_hold);
  const electrochem::ChronoamperometrySim sim(
      electrochem::Cell(sensor.layer(), sample, options.hydrodynamics), step,
      chrono);
  ChronoRun run;
  run.trace = sim.try_run().value();
  run.figure = run.trace.try_tail_mean_a(0.1).value();
  run.t95_s = sim.response_time_95().seconds();
  for (const double i : run.trace.current_a) {
    run.peak_a = std::max(run.peak_a, std::abs(i));
  }
  return run;
}

TEST(ChronoConvergence, DefaultGridMeetsStatedTolerances) {
  const electrochem::ChronoOptions defaults;
  const std::size_t nodes = defaults.grid_nodes;
  const double dt_s = defaults.dt.seconds();

  double worst_figure = 0.0, worst_t95_s = 0.0, worst_trace = 0.0,
         worst_peak = 0.0;
  std::size_t rows = 0;
  for (const core::CatalogEntry& e : core::full_catalog()) {
    if (e.spec.technique != core::Technique::kChronoamperometry) continue;
    ++rows;
    const core::BiosensorModel sensor(e.spec);
    for (const double fraction : {0.0, 0.05, 0.5, 1.0, 2.0}) {
      const chem::Sample sample = chem::calibration_sample(
          e.spec.target, e.published.range_high * fraction);
      const ChronoRun run = run_chrono(sensor, sample, nodes);
      const ChronoRun ref = run_chrono(sensor, sample, kReferenceNodes);
      const std::string where =
          e.spec.name + " at " + std::to_string(fraction) + " x range_high";
      ASSERT_EQ(run.trace.size(), ref.trace.size()) << where;

      // Sample times accumulate dt by addition, so two steps apart is
      // 2 dt only up to rounding.
      const double t95_dev = std::abs(run.t95_s - ref.t95_s);
      worst_t95_s = std::max(worst_t95_s, t95_dev);
      EXPECT_LE(t95_dev, 2.0 * dt_s * (1.0 + 1e-9)) << where;

      if (ref.peak_a > 0.0) {
        const double peak_dev = std::abs(run.peak_a - ref.peak_a) / ref.peak_a;
        worst_peak = std::max(worst_peak, peak_dev);
        EXPECT_LE(peak_dev, 0.01) << where;
      }

      // The relative checks need a nonzero final current; the blank's
      // is exactly 0.
      const double final_a = std::abs(ref.figure);
      if (final_a == 0.0) continue;
      const double figure_dev = std::abs(run.figure - ref.figure) / final_a;
      worst_figure = std::max(worst_figure, figure_dev);
      EXPECT_LE(figure_dev, 1e-6) << where;

      double trace_dev = 0.0;
      for (std::size_t k = 0; k < ref.trace.size(); ++k) {
        if (ref.trace.time_s[k] < 0.5) continue;
        trace_dev = std::max(trace_dev, std::abs(run.trace.current_a[k] -
                                                 ref.trace.current_a[k]));
      }
      trace_dev /= final_a;
      worst_trace = std::max(worst_trace, trace_dev);
      EXPECT_LE(trace_dev, 0.01) << where;
    }
  }
  EXPECT_EQ(rows, 14u);
  std::cout << nodes << " nodes against " << kReferenceNodes
            << ": figure " << worst_figure << " relative, t95 "
            << worst_t95_s << " s, trace from 0.5 s " << worst_trace
            << " of the final current, peak " << worst_peak
            << " relative (worst over " << rows << " rows x 5 levels)\n";
}

}  // namespace
}  // namespace biosens
