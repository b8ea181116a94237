// DifferentialSensor: dual working-electrode referencing on the chip.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/stats.hpp"
#include "core/catalog.hpp"
#include "core/differential.hpp"

namespace biosens::core {
namespace {

SensorSpec glucose_spec() {
  return try_entry("MWCNT/Nafion + GOD (this work)").value().spec;
}

TEST(Differential, ReferenceChannelSharesChemistryButNotEnzyme) {
  const DifferentialSensor pair(glucose_spec());
  const auto& active = pair.active().layer();
  const auto& reference = pair.reference().layer();
  // Same film, area, noise...
  EXPECT_DOUBLE_EQ(active.geometric_area.square_meters(),
                   reference.geometric_area.square_meters());
  EXPECT_DOUBLE_EQ(active.blank_noise_rms.amps(),
                   reference.blank_noise_rms.amps());
  EXPECT_DOUBLE_EQ(active.interferent_transmission,
                   reference.interferent_transmission);
  // ...but essentially no wired enzyme on the reference.
  EXPECT_LT(reference.wired_coverage.mol_per_m2(),
            1e-6 * active.wired_coverage.mol_per_m2());
}

TEST(Differential, IdealBlankDifferentialIsZero) {
  const DifferentialSensor pair(glucose_spec());
  EXPECT_NEAR(pair.ideal_differential_a(chem::blank_sample()), 0.0, 1e-15);
}

TEST(Differential, SignalSurvivesSubtraction) {
  const DifferentialSensor pair(glucose_spec());
  const chem::Sample sample =
      chem::calibration_sample("glucose", Concentration::milli_molar(0.5));
  const double differential = pair.ideal_differential_a(sample);
  const double single = pair.active().ideal_response_a(sample);
  EXPECT_NEAR(differential, single, 0.01 * single);
}

TEST(Differential, InterferentBackgroundCancelsExactly) {
  const DifferentialSensor pair(glucose_spec());
  const chem::Sample serum_blank =
      chem::serum_sample("glucose", Concentration{});
  // Single-ended, the serum blank reads a large phantom current...
  EXPECT_GT(pair.active().ideal_response_a(serum_blank), 1e-9);
  // ...which the reference channel reproduces and the pair removes.
  EXPECT_NEAR(pair.ideal_differential_a(serum_blank), 0.0, 1e-12);
}

TEST(Differential, NoiseGrowsBySqrtTwoOnly) {
  const DifferentialSensor pair(glucose_spec());
  const BiosensorModel single(glucose_spec());
  const chem::Sample blank = chem::blank_sample();

  Rng rng_pair(9), rng_single(9);
  std::vector<double> diff, single_ended;
  for (int i = 0; i < 30; ++i) {
    diff.push_back(pair.measure_differential_a(blank, rng_pair));
    single_ended.push_back(
        single.try_measure(blank, rng_single).value().response_a);
  }
  const double ratio = sample_stddev(diff) / sample_stddev(single_ended);
  EXPECT_NEAR(ratio, std::sqrt(2.0), 0.5);
}

TEST(Differential, WorksForVoltammetricSensorsToo) {
  const DifferentialSensor pair(
      try_entry("MWCNT + CYP (cyclophosphamide)").value().spec);
  const chem::Sample dosed = chem::calibration_sample(
      "cyclophosphamide", Concentration::micro_molar(40.0));
  // Reference still shows the capacitive box but no heme/catalytic peak;
  // the differential keeps the drug signal.
  EXPECT_GT(pair.ideal_differential_a(dosed), 0.0);
  EXPECT_LT(pair.reference().ideal_response_a(dosed),
            0.05 * pair.active().ideal_response_a(dosed));
}

}  // namespace
}  // namespace biosens::core
