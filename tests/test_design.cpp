// Inverse design: round-trip from target figures to measured figures.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/design.hpp"
#include "core/protocol.hpp"
#include "core/sensor.hpp"

namespace biosens::core {
namespace {

SensorSpec base_oxidase_spec() {
  SensorSpec spec;
  spec.name = "design round-trip";
  spec.citation = "test";
  spec.target = "glucose";
  spec.technique = Technique::kChronoamperometry;
  spec.assembly.geometry = electrode::microfabricated_gold();
  spec.assembly.modification = electrode::mwcnt_nafion();
  spec.assembly.immobilization = electrode::try_immobilization_defaults(
      electrode::ImmobilizationMethod::kAdsorption).value();
  spec.assembly.enzyme = *chem::try_enzyme("GOD").value();
  spec.assembly.substrate = "glucose";
  spec.assembly.loading_monolayers = 1.0;
  return spec;
}

SensorSpec base_cyp_spec() {
  SensorSpec spec;
  spec.name = "design round-trip (CV)";
  spec.citation = "test";
  spec.target = "cyclophosphamide";
  spec.technique = Technique::kCyclicVoltammetry;
  spec.assembly.geometry = electrode::screen_printed_electrode();
  spec.assembly.modification = electrode::mwcnt_chloroform();
  spec.assembly.immobilization = electrode::try_immobilization_defaults(
      electrode::ImmobilizationMethod::kAdsorption).value();
  spec.assembly.enzyme = *chem::try_enzyme("CYP2B6").value();
  spec.assembly.substrate = "cyclophosphamide";
  spec.assembly.loading_monolayers = 1.0;
  return spec;
}

PublishedFigures figures(double sens, double lo, double hi, double lod_um) {
  PublishedFigures f;
  f.sensitivity = Sensitivity::micro_amp_per_milli_molar_cm2(sens);
  f.range_low = Concentration::milli_molar(lo);
  f.range_high = Concentration::milli_molar(hi);
  f.lod = Concentration::micro_molar(lod_um);
  return f;
}

TEST(Design, StandardSeriesRequiresOrderedBounds) {
  EXPECT_THROW(standard_series(Concentration::milli_molar(1.0),
                               Concentration::milli_molar(1.0)),
               SpecError);
}

TEST(Design, TransportCeilingFormula) {
  const Sensitivity ceiling =
      ca_transport_ceiling(2, Diffusivity::cm2_per_s(6.7e-6), 25e-6);
  EXPECT_NEAR(ceiling.raw(), 2.0 * 96485.33212 * 6.7e-10 / 25e-6,
              1e-6);
}

TEST(Design, RejectsSensitivityAboveTransportCeiling) {
  SensorSpec spec = base_oxidase_spec();
  // Ceiling is ~517 uA/mM/cm2 for glucose at 25 um; ask for more.
  EXPECT_THROW(
      calibrate_to_figures(spec, figures(2000.0, 0.0, 1.0, 2.0)),
      SpecError);
}

TEST(Design, RejectsLoadingBeyondImmobilizationLimit) {
  SensorSpec spec = base_oxidase_spec();
  // Huge sensitivity with a huge range needs absurd enzyme loading.
  EXPECT_THROW(
      calibrate_to_figures(spec, figures(400.0, 0.0, 30.0, 2.0)),
      SpecError);
}

TEST(Design, SetsPhysicalKnobs) {
  SensorSpec spec = base_oxidase_spec();
  calibrate_to_figures(spec, figures(55.5, 0.0, 1.0, 2.0));
  EXPECT_GT(spec.assembly.loading_monolayers, 0.0);
  EXPECT_LE(spec.assembly.loading_monolayers,
            spec.assembly.immobilization.max_monolayers);
  EXPECT_GT(spec.assembly.km_tuning, 0.0);
  EXPECT_GT(spec.assembly.noise_tuning, 0.0);
  EXPECT_NO_THROW(spec.try_validate().value());
}

struct RoundTripCase {
  double sens_ua;
  double hi_mm;
  double lod_um;
};

class DesignRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(DesignRoundTrip, MeasuredFiguresMatchTargets) {
  const RoundTripCase c = GetParam();
  SensorSpec spec = base_oxidase_spec();
  calibrate_to_figures(spec, figures(c.sens_ua, 0.0, c.hi_mm, c.lod_um));

  const BiosensorModel sensor(spec);
  const CalibrationProtocol protocol;
  Rng rng(2025);
  const auto outcome = protocol.try_run(
      sensor,
      standard_series(Concentration{}, Concentration::milli_molar(c.hi_mm)),
      rng).value();

  EXPECT_NEAR(outcome.result.sensitivity.micro_amp_per_milli_molar_cm2(),
              c.sens_ua, 0.10 * c.sens_ua);
  EXPECT_NEAR(outcome.result.linear_range_high.milli_molar(), c.hi_mm,
              0.30 * c.hi_mm);
  EXPECT_NEAR(outcome.result.lod.micro_molar(), c.lod_um,
              0.6 * c.lod_um);
}

INSTANTIATE_TEST_SUITE_P(
    OxidaseTargets, DesignRoundTrip,
    ::testing::Values(RoundTripCase{55.5, 1.0, 2.0},
                      RoundTripCase{10.0, 2.0, 10.0},
                      RoundTripCase{100.0, 0.5, 1.0},
                      RoundTripCase{2.0, 5.0, 50.0}));

TEST(Design, CypRoundTrip) {
  SensorSpec spec = base_cyp_spec();
  calibrate_to_figures(spec, figures(102.0, 0.0, 0.07, 2.0));

  const BiosensorModel sensor(spec);
  const CalibrationProtocol protocol;
  Rng rng(7);
  const auto outcome = protocol.try_run(
      sensor,
      standard_series(Concentration{}, Concentration::milli_molar(0.07)),
      rng).value();
  EXPECT_NEAR(outcome.result.sensitivity.micro_amp_per_milli_molar_cm2(),
              102.0, 0.10 * 102.0);
  EXPECT_NEAR(outcome.result.linear_range_high.milli_molar(), 0.07,
              0.30 * 0.07);
  EXPECT_NEAR(outcome.result.lod.micro_molar(), 2.0, 1.2);
}

TEST(Design, CvSensitivityAboveRandlesSevcikCeilingRejected) {
  SensorSpec spec = base_cyp_spec();
  EXPECT_THROW(
      calibrate_to_figures(spec, figures(100000.0, 0.0, 0.07, 2.0)),
      SpecError);
}

TEST(Design, NoLodLeavesDefaultNoise) {
  SensorSpec spec = base_oxidase_spec();
  PublishedFigures f = figures(20.0, 0.0, 2.0, 1.0);
  f.lod.reset();
  calibrate_to_figures(spec, f);
  EXPECT_DOUBLE_EQ(spec.assembly.noise_tuning, 1.0);
}

}  // namespace
}  // namespace biosens::core
