// Chronoamperometry simulator: steady states, transients, response time.
#include <gtest/gtest.h>

#include <cmath>

#include "chem/enzyme.hpp"
#include "chem/solution.hpp"
#include "common/constants.hpp"
#include "electrochem/chronoamperometry.hpp"
#include "electrode/assembly.hpp"

namespace biosens::electrochem {
namespace {

electrode::EffectiveLayer glucose_layer(double loading = 0.05) {
  electrode::Assembly a;
  a.geometry = electrode::microfabricated_gold();
  a.modification = electrode::mwcnt_nafion();
  a.immobilization = electrode::try_immobilization_defaults(
      electrode::ImmobilizationMethod::kAdsorption).value();
  a.enzyme = *chem::try_enzyme("GOD").value();
  a.substrate = "glucose";
  a.loading_monolayers = loading;
  return electrode::try_synthesize(a).value();
}

ChronoamperometrySim make_sim(Concentration glucose,
                              double loading = 0.05) {
  Cell cell(glucose_layer(loading),
            chem::calibration_sample("glucose", glucose),
            Hydrodynamics{true, 400.0});
  return ChronoamperometrySim(std::move(cell), standard_oxidase_step());
}

TEST(Chrono, BlankGivesNearZeroSteadyState) {
  const Current ss = make_sim(Concentration{}).try_steady_state().value();
  EXPECT_NEAR(ss.amps(), 0.0, 1e-12);
}

TEST(Chrono, SteadyStateMatchesAnalyticBalance) {
  // The PDE's long-time limit must solve the algebraic flux balance
  // D (cb - c0)/delta = Gamma k_cat c0 / (Km + c0).
  const electrode::EffectiveLayer layer = glucose_layer();
  const double cb = 0.5;  // mM
  const Current ss =
      make_sim(Concentration::milli_molar(cb)).try_steady_state().value();

  const double d = layer.substrate_diffusivity.m2_per_s();
  const double delta = 25e-6;
  const double a_flux = layer.wired_coverage.mol_per_m2() *
                        layer.k_cat_app.per_second();
  const double km = layer.k_m_app.milli_molar();
  const double m = d / delta;
  const double b = a_flux + m * km - m * cb;
  const double c0 =
      (-b + std::sqrt(b * b + 4.0 * m * m * cb * km)) / (2.0 * m);
  const double expected = layer.electrons * constants::kFaraday * a_flux *
                          c0 / (km + c0) *
                          layer.geometric_area.square_meters();
  EXPECT_NEAR(ss.amps(), expected, 0.02 * expected);
}

TEST(Chrono, TransientDecaysToSteadyState) {
  const TimeSeries trace =
      make_sim(Concentration::milli_molar(1.0)).try_run().value();
  ASSERT_GT(trace.size(), 100u);
  // The initial capacitive + depletion transient exceeds the tail.
  const double early = trace.current_a[2];
  const double late = trace.try_tail_mean_a(0.1).value();
  EXPECT_GT(early, late);
  // Tail is flat: last two deciles agree within 1%.
  const double d9 = trace.try_tail_mean_a(0.1).value();
  const double d8 = trace.try_tail_mean_a(0.2).value();
  EXPECT_NEAR(d9, d8, 0.01 * std::abs(d8));
}

TEST(Chrono, ResponseIsMonotoneInConcentration) {
  double prev = -1.0;
  for (double c : {0.0, 0.1, 0.25, 0.5, 1.0, 2.0}) {
    const double ss = make_sim(Concentration::milli_molar(c))
                          .try_steady_state()
                          .value()
                          .amps();
    EXPECT_GT(ss, prev) << "at c = " << c;
    prev = ss;
  }
}

TEST(Chrono, SaturatesAboveKm) {
  // Doubling the concentration deep in saturation barely moves the
  // current.
  const electrode::EffectiveLayer layer = glucose_layer();
  const double km = layer.k_m_app.milli_molar();
  const double s1 = make_sim(Concentration::milli_molar(20.0 * km))
                        .try_steady_state()
                        .value()
                        .amps();
  const double s2 = make_sim(Concentration::milli_molar(40.0 * km))
                        .try_steady_state()
                        .value()
                        .amps();
  EXPECT_LT(s2 / s1, 1.05);
}

TEST(Chrono, InterferentsAddBackground) {
  const electrode::EffectiveLayer layer = glucose_layer();
  Cell clean(layer,
             chem::calibration_sample("glucose",
                                      Concentration::milli_molar(0.5)),
             Hydrodynamics{true, 400.0});
  Cell serum(layer,
             chem::serum_sample("glucose", Concentration::milli_molar(0.5)),
             Hydrodynamics{true, 400.0});
  const double clean_ss =
      ChronoamperometrySim(std::move(clean), standard_oxidase_step())
          .try_steady_state().value()
          .amps();
  const double serum_ss =
      ChronoamperometrySim(std::move(serum), standard_oxidase_step())
          .try_steady_state().value()
          .amps();
  EXPECT_GT(serum_ss, clean_ss);
}

TEST(Chrono, ResponseTimeIsSecondsScale) {
  const Time t95 =
      make_sim(Concentration::milli_molar(0.5)).response_time_95();
  EXPECT_GT(t95.seconds(), 0.01);
  EXPECT_LT(t95.seconds(), 10.0);
}

TEST(Chrono, RejectsBadOptions) {
  ChronoOptions opts;
  opts.dt = Time::seconds(0.0);
  Cell cell(glucose_layer(), chem::blank_sample());
  EXPECT_THROW(
      ChronoamperometrySim(std::move(cell), standard_oxidase_step(), opts),
      SpecError);
}

// Property: steady state scales linearly with loading in the kinetic
// regime (low loading, low concentration).
class ChronoLoading : public ::testing::TestWithParam<double> {};

TEST_P(ChronoLoading, KineticRegimeLinearInLoading) {
  const double loading = GetParam();
  const double base = make_sim(Concentration::milli_molar(0.1), 0.01)
                          .try_steady_state()
                          .value()
                          .amps();
  const double scaled =
      make_sim(Concentration::milli_molar(0.1), 0.01 * loading)
          .try_steady_state().value()
          .amps();
  EXPECT_NEAR(scaled / base, loading, 0.1 * loading);
}

INSTANTIATE_TEST_SUITE_P(Loadings, ChronoLoading,
                         ::testing::Values(2.0, 4.0, 8.0));

}  // namespace
}  // namespace biosens::electrochem
