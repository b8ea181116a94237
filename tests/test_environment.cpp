// Environmental response: oxygen dependence of oxidases, pH and
// temperature effects, and their propagation through the measurement.
#include <gtest/gtest.h>

#include <cmath>

#include "chem/enzyme.hpp"
#include "chem/environment.hpp"
#include "core/catalog.hpp"
#include "core/sensor.hpp"

namespace biosens::chem {
namespace {

const EnvironmentSensitivity kOxidase{Concentration::micro_molar(30.0),
                                      7.0, 1.6, 35.0};

TEST(Environment, ReferenceConditionsGiveUnity) {
  EXPECT_NEAR(try_relative_activity(kOxidase, reference_buffer(),
                                    air_saturated_oxygen()).value(),
              1.0, 1e-12);
}

TEST(Environment, HypoxiaSuppressesOxidases) {
  Buffer ref = reference_buffer();
  // Venous-tissue oxygen ~ 30 uM = K_M,O2: activity halves relative to
  // the O2 term, i.e. factor ~ (0.5) / (250/280).
  const double hypoxic = try_relative_activity(
      kOxidase, ref, Concentration::micro_molar(30.0)).value();
  EXPECT_NEAR(hypoxic, 0.5 / (250.0 / 280.0), 1e-9);
  // Anoxia kills the signal entirely.
  EXPECT_NEAR(
      try_relative_activity(kOxidase, ref, Concentration{}).value(), 0.0,
      1e-12);
}

TEST(Environment, CypIsOxygenIndependent) {
  const Enzyme& cyp = *try_enzyme("CYP2B6").value();
  EXPECT_DOUBLE_EQ(cyp.environment.oxygen_km.milli_molar(), 0.0);
  EXPECT_NEAR(try_relative_activity(cyp.environment, reference_buffer(),
                                    Concentration{}).value(),
              1.0, 1e-12);
}

TEST(Environment, TemperatureFollowsArrhenius) {
  Buffer warm = reference_buffer();
  warm.temperature = Temperature::celsius(37.0);
  const double at_37 =
      try_relative_activity(kOxidase, warm, air_saturated_oxygen()).value();
  // Ea = 35 kJ/mol over 25->37 C is ~1.7-1.8x.
  EXPECT_GT(at_37, 1.5);
  EXPECT_LT(at_37, 2.1);

  Buffer cold = reference_buffer();
  cold.temperature = Temperature::celsius(10.0);
  EXPECT_LT(
      try_relative_activity(kOxidase, cold, air_saturated_oxygen()).value(),
      0.6);
}

TEST(Environment, PhBellAroundOptimum) {
  Buffer acidic = reference_buffer();
  acidic.ph = 5.0;
  Buffer basic = reference_buffer();
  basic.ph = 9.5;
  const double at_ref = try_relative_activity(kOxidase, reference_buffer(),
                                              air_saturated_oxygen())
                            .value();
  EXPECT_LT(
      try_relative_activity(kOxidase, acidic, air_saturated_oxygen()).value(),
      at_ref);
  EXPECT_LT(
      try_relative_activity(kOxidase, basic, air_saturated_oxygen()).value(),
      at_ref);
  // The bell is symmetric around the optimum (7.0).
  Buffer lo = reference_buffer();
  lo.ph = 6.0;
  Buffer hi = reference_buffer();
  hi.ph = 8.0;
  EXPECT_NEAR(try_raw_activity(kOxidase, lo, air_saturated_oxygen()).value(),
              try_raw_activity(kOxidase, hi, air_saturated_oxygen()).value(),
              1e-12);
}

TEST(Environment, ValidationRejectsNonPhysical) {
  EnvironmentSensitivity bad = kOxidase;
  bad.ph_width = 0.0;
  const auto flat_ph = try_raw_activity(bad, reference_buffer(),
                                        air_saturated_oxygen());
  ASSERT_FALSE(flat_ph.has_value());
  EXPECT_EQ(flat_ph.error().code, ErrorCode::kSpec);
  const auto negative_o2 = try_raw_activity(
      kOxidase, reference_buffer(), Concentration::milli_molar(-1.0));
  ASSERT_FALSE(negative_o2.has_value());
  EXPECT_EQ(negative_o2.error().code, ErrorCode::kSpec);
}

TEST(Environment, HypoxicSampleUnderReadsThroughTheFullPipeline) {
  // A first-generation oxidase sensor under-reports glucose in a
  // hypoxic sample — the classic limitation, reproduced end to end.
  const core::BiosensorModel sensor(
      core::try_entry("MWCNT/Nafion + GOD (this work)").value().spec);
  chem::Sample normal =
      chem::calibration_sample("glucose", Concentration::milli_molar(0.5));
  chem::Sample hypoxic = normal;
  hypoxic.set_dissolved_oxygen(Concentration::micro_molar(30.0));

  const double i_normal = sensor.ideal_response_a(normal);
  const double i_hypoxic = sensor.ideal_response_a(hypoxic);
  EXPECT_LT(i_hypoxic, 0.7 * i_normal);
  EXPECT_GT(i_hypoxic, 0.3 * i_normal);
}

TEST(Environment, BodyTemperatureBoostsTheSignal) {
  const core::BiosensorModel sensor(
      core::try_entry("MWCNT/Nafion + GOD (this work)").value().spec);
  chem::Sample ref =
      chem::calibration_sample("glucose", Concentration::milli_molar(0.5));
  chem::Sample warm = ref;
  // Rebuild with a 37 C buffer.
  Buffer body;
  body.temperature = Temperature::celsius(37.0);
  chem::Sample warm_sample(body);
  warm_sample.set("glucose", Concentration::milli_molar(0.5));

  const double i_ref = sensor.ideal_response_a(ref);
  const double i_warm = sensor.ideal_response_a(warm_sample);
  EXPECT_GT(i_warm, 1.3 * i_ref);
}

TEST(Environment, CypSensorUnaffectedByHypoxia) {
  const core::BiosensorModel sensor(
      core::try_entry("MWCNT + CYP (cyclophosphamide)").value().spec);
  chem::Sample normal = chem::calibration_sample(
      "cyclophosphamide", Concentration::micro_molar(40.0));
  chem::Sample hypoxic = normal;
  hypoxic.set_dissolved_oxygen(Concentration::micro_molar(10.0));
  EXPECT_NEAR(sensor.ideal_response_a(hypoxic),
              sensor.ideal_response_a(normal),
              0.01 * sensor.ideal_response_a(normal));
}

}  // namespace
}  // namespace biosens::chem
