// BiosensorModel: the full measurement pipeline on single samples.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/stats.hpp"
#include "core/catalog.hpp"
#include "core/sensor.hpp"

namespace biosens::core {
namespace {

BiosensorModel glucose_sensor() {
  return BiosensorModel(
      try_entry("MWCNT/Nafion + GOD (this work)").value().spec);
}

BiosensorModel cp_sensor() {
  return BiosensorModel(
      try_entry("MWCNT + CYP (cyclophosphamide)").value().spec);
}

TEST(Sensor, MeasurementCarriesTheRawArtifact) {
  Rng rng(1);
  const BiosensorModel sensor = glucose_sensor();
  const Measurement m = sensor.try_measure(
      chem::calibration_sample("glucose", Concentration::milli_molar(0.5)),
      rng).value();
  EXPECT_EQ(m.technique, Technique::kChronoamperometry);
  EXPECT_GT(m.trace.size(), 100u);
  EXPECT_TRUE(m.voltammogram.empty());
  EXPECT_GT(m.response_a, 0.0);
}

TEST(Sensor, VoltammetricMeasurementCarriesVoltammogramAndPeak) {
  Rng rng(1);
  const BiosensorModel sensor = cp_sensor();
  const Measurement m = sensor.try_measure(
      chem::calibration_sample("cyclophosphamide",
                               Concentration::micro_molar(40.0)),
      rng).value();
  EXPECT_EQ(m.technique, Technique::kCyclicVoltammetry);
  EXPECT_TRUE(m.trace.empty());
  EXPECT_GT(m.voltammogram.size(), 100u);
  ASSERT_TRUE(m.peak.has_value());
  EXPECT_DOUBLE_EQ(m.response_a, m.peak->height_a);
}

TEST(Sensor, IdealResponseIsDeterministic) {
  const BiosensorModel sensor = glucose_sensor();
  const chem::Sample s =
      chem::calibration_sample("glucose", Concentration::milli_molar(0.5));
  EXPECT_DOUBLE_EQ(sensor.ideal_response_a(s), sensor.ideal_response_a(s));
}

TEST(Sensor, NoisyMeasurementScattersAroundIdeal) {
  const BiosensorModel sensor = glucose_sensor();
  const chem::Sample s =
      chem::calibration_sample("glucose", Concentration::milli_molar(0.5));
  const double ideal = sensor.ideal_response_a(s);
  Rng rng(42);
  std::vector<double> responses;
  for (int i = 0; i < 40; ++i) {
    responses.push_back(sensor.try_measure(s, rng).value().response_a);
  }
  const double m = mean(responses);
  const double sd = sample_stddev(responses);
  EXPECT_NEAR(m, ideal, 4.0 * sd / std::sqrt(40.0) + 1e-12);
  // Spread is set by the electrode background.
  EXPECT_NEAR(sd, sensor.layer().blank_noise_rms.amps(),
              0.5 * sensor.layer().blank_noise_rms.amps());
}

TEST(Sensor, SameSeedReproducesExactly) {
  const BiosensorModel sensor = glucose_sensor();
  const chem::Sample s =
      chem::calibration_sample("glucose", Concentration::milli_molar(0.5));
  Rng a(7), b(7);
  EXPECT_DOUBLE_EQ(sensor.try_measure(s, a).value().response_a,
                   sensor.try_measure(s, b).value().response_a);
}

TEST(Sensor, ResponseMonotoneInConcentration) {
  const BiosensorModel sensor = glucose_sensor();
  double prev = -1.0;
  for (double c : {0.0, 0.25, 0.5, 1.0}) {
    const double r = sensor.ideal_response_a(
        chem::calibration_sample("glucose", Concentration::milli_molar(c)));
    EXPECT_GT(r, prev);
    prev = r;
  }
}

TEST(Sensor, CypIdealResponseGrowsWithDrug) {
  const BiosensorModel sensor = cp_sensor();
  const double blank = sensor.ideal_response_a(
      chem::calibration_sample("cyclophosphamide", Concentration{}));
  const double dosed = sensor.ideal_response_a(chem::calibration_sample(
      "cyclophosphamide", Concentration::micro_molar(70.0)));
  EXPECT_GT(dosed, blank);
  EXPECT_GT(blank, 0.0);  // protein redox bell even without drug
}

TEST(Sensor, NoiseSpecComesFromElectrode) {
  const BiosensorModel sensor = glucose_sensor();
  EXPECT_DOUBLE_EQ(sensor.noise_spec().electrode_lf_rms.amps(),
                   sensor.layer().blank_noise_rms.amps());
}

TEST(Sensor, ElectrodeAreaExposed) {
  EXPECT_DOUBLE_EQ(glucose_sensor().electrode_area().square_millimeters(),
                   0.25);
}

TEST(Sensor, InvalidSpecRejectedAtConstruction) {
  SensorSpec bad = cp_sensor().spec();
  bad.technique = Technique::kChronoamperometry;  // CYP + CA forbidden
  EXPECT_THROW(BiosensorModel{bad}, SpecError);
}

}  // namespace
}  // namespace biosens::core
