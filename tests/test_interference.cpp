// Interference robustness: the platform's selectivity claims measured
// against the standard serum interferent panel (ascorbate, urate,
// paracetamol) across techniques and film chemistries.
#include <gtest/gtest.h>

#include <cmath>

#include "core/catalog.hpp"
#include "core/differential.hpp"
#include "core/protocol.hpp"

namespace biosens::core {
namespace {

/// Calibrates a sensor on clean standards, then measures a serum sample
/// and returns the relative quantification error.
double serum_relative_error(const SensorSpec& spec, Concentration level,
                            std::uint64_t seed) {
  const BiosensorModel sensor(spec);
  Rng rng(seed);
  const CalibrationProtocol protocol;
  const CatalogEntry entry = try_entry(spec.name).value();
  const auto cal =
      protocol
          .try_run(sensor,
                   standard_series(entry.published.range_low,
                                   entry.published.range_high),
                   rng)
          .value()
          .result;

  double total = 0.0;
  constexpr int kRepeats = 6;
  for (int i = 0; i < kRepeats; ++i) {
    const double response =
        sensor.try_measure(chem::serum_sample(spec.target, level), rng).value()
            .response_a;
    total += (response - cal.fit.intercept) / cal.fit.slope;
  }
  const double estimated = total / kRepeats;
  return (estimated - level.milli_molar()) / level.milli_molar();
}

TEST(Interference, SingleEndedNafionSensorStillReadsHighInSerum) {
  // Even with Nafion's 10x interferent rejection, the residual
  // ascorbate/urate/paracetamol oxidation at +650 mV biases a
  // single-ended reading of 0.5 mM glucose upward — the quantitative
  // reason the chip reserves a working electrode for referencing.
  const SensorSpec spec =
      try_entry("MWCNT/Nafion + GOD (this work)").value().spec;
  const double err = serum_relative_error(
      spec, Concentration::milli_molar(0.5), 21);
  EXPECT_GT(err, 0.3);
  EXPECT_LT(err, 1.5);
}

TEST(Interference, DifferentialReferencingRecoversAccuracy) {
  // Active-minus-reference on the same chip cancels the interferent
  // background (it is common-mode): serum reads within ~12%.
  const SensorSpec spec =
      try_entry("MWCNT/Nafion + GOD (this work)").value().spec;
  const DifferentialSensor pair(spec);

  // Two-point clean calibration of the differential channel.
  const double blank = pair.ideal_differential_a(chem::blank_sample());
  const double top = pair.ideal_differential_a(
      chem::calibration_sample("glucose", Concentration::milli_molar(0.5)));
  const double slope = (top - blank) / 0.5;

  Rng rng(21);
  double total = 0.0;
  constexpr int kRepeats = 6;
  for (int i = 0; i < kRepeats; ++i) {
    total += pair.measure_differential_a(
        chem::serum_sample("glucose", Concentration::milli_molar(0.5)),
        rng);
  }
  const double estimated = (total / kRepeats - blank) / slope;
  EXPECT_NEAR(estimated, 0.5, 0.06);
}

TEST(Interference, UnprotectedFilmReadsHighInSerum) {
  // Strip the permselectivity (transmission 1.0): the interferents
  // oxidize freely at +650 mV and the sensor overreads badly.
  SensorSpec spec = try_entry("MWCNT/Nafion + GOD (this work)").value().spec;
  spec.assembly.modification.interferent_transmission = 1.0;
  const double err = serum_relative_error(
      spec, Concentration::milli_molar(0.5), 21);
  EXPECT_GT(err, 0.5);  // > 50% positive bias
}

TEST(Interference, BiasScalesWithTransmission) {
  SensorSpec spec = try_entry("MWCNT/Nafion + GOD (this work)").value().spec;
  spec.assembly.modification.interferent_transmission = 0.5;
  const double half = serum_relative_error(
      spec, Concentration::milli_molar(0.5), 21);
  spec.assembly.modification.interferent_transmission = 1.0;
  const double full = serum_relative_error(
      spec, Concentration::milli_molar(0.5), 21);
  EXPECT_NEAR(full / half, 2.0, 0.3);
}

TEST(Interference, CypVoltammetryToleratesSerum) {
  // The CYP sweep stays below the interferents' oxidation onsets except
  // at its +0.2 V start, and the peak-adjacent baseline ignores that
  // region: serum error stays small.
  const SensorSpec spec =
      try_entry("MWCNT + CYP (cyclophosphamide)").value().spec;
  const double err = serum_relative_error(
      spec, Concentration::micro_molar(40.0), 33);
  EXPECT_LT(std::abs(err), 0.15);
}

TEST(Interference, DpvToleratesSerumEvenBetter) {
  SensorSpec spec = try_entry("MWCNT + CYP (cyclophosphamide)").value().spec;
  spec.technique = Technique::kDifferentialPulseVoltammetry;
  spec.name = "MWCNT + CYP (cyclophosphamide)";  // reuse catalog ranges
  const double err = serum_relative_error(
      spec, Concentration::micro_molar(40.0), 33);
  EXPECT_LT(std::abs(err), 0.12);
}

TEST(Interference, SerumBlankReadsNearZeroWithDifferentialReferencing) {
  // A serum *blank* (no analyte) through the differential pair must not
  // produce an apparent glucose level far above the (sqrt(2)-degraded)
  // detection limit.
  const CatalogEntry entry =
      try_entry("MWCNT/Nafion + GOD (this work)").value();
  const DifferentialSensor pair(entry.spec);
  const double blank = pair.ideal_differential_a(chem::blank_sample());
  const double top = pair.ideal_differential_a(chem::calibration_sample(
      "glucose", Concentration::milli_molar(0.5)));
  const double slope = (top - blank) / 0.5;

  Rng rng(5);
  double total = 0.0;
  for (int i = 0; i < 8; ++i) {
    total += pair.measure_differential_a(
        chem::serum_sample("glucose", Concentration{}), rng);
  }
  const double apparent_mm = (total / 8.0 - blank) / slope;
  // Single-ended, the same serum blank reads ~0.45 mM of phantom
  // glucose; differential referencing leaves only noise.
  EXPECT_LT(std::abs(apparent_mm), 0.02);
}

}  // namespace
}  // namespace biosens::core
