// CalibrationProtocol: series construction and end-to-end outcomes.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/catalog.hpp"
#include "core/protocol.hpp"

namespace biosens::core {
namespace {

TEST(Protocol, LinearSeriesSpansRange) {
  const auto series = CalibrationProtocol::linear_series(
      Concentration{}, Concentration::milli_molar(2.0), 9);
  ASSERT_EQ(series.size(), 9u);
  EXPECT_DOUBLE_EQ(series.front().milli_molar(), 0.0);
  EXPECT_DOUBLE_EQ(series.back().milli_molar(), 2.0);
  EXPECT_DOUBLE_EQ(series[4].milli_molar(), 1.0);
}

TEST(Protocol, StandardSeriesExtendsBeyondRange) {
  const auto series = standard_series(Concentration{},
                                      Concentration::milli_molar(1.0));
  ASSERT_EQ(series.size(), 13u);
  EXPECT_DOUBLE_EQ(series.front().milli_molar(), 0.0);
  EXPECT_DOUBLE_EQ(series[8].milli_molar(), 1.0);   // range top on-grid
  EXPECT_DOUBLE_EQ(series.back().milli_molar(), 2.0);  // 2x overshoot
}

TEST(Protocol, OutcomeShapes) {
  const CatalogEntry entry =
      try_entry("MWCNT/Nafion + GOD (this work)").value();
  const BiosensorModel sensor(entry.spec);
  Rng rng(11);
  ProtocolOptions options;
  options.blank_repeats = 6;
  options.replicates = 1;
  const CalibrationProtocol protocol(options);
  const auto series = standard_series(entry.published.range_low,
                                      entry.published.range_high);
  const ProtocolOutcome outcome = protocol.try_run(sensor, series, rng).value();

  EXPECT_EQ(outcome.blank_responses_a.size(), 6u);
  EXPECT_EQ(outcome.points.size(), series.size());
  EXPECT_GT(outcome.result.fit.slope, 0.0);
  EXPECT_GT(outcome.result.sensitivity.raw(), 0.0);
  EXPECT_GT(outcome.result.lod.milli_molar(), 0.0);
  EXPECT_GT(outcome.result.points_in_linear_region, 3u);
}

TEST(Protocol, ReplicateAveragingReducesPointScatter) {
  // The scatter of a replicate-averaged calibration point shrinks as
  // 1/sqrt(r); verify on repeated single-level measurements.
  const CatalogEntry entry =
      try_entry("MWCNT/Nafion + GOD (this work)").value();
  const BiosensorModel sensor(entry.spec);
  const chem::Sample level =
      chem::calibration_sample("glucose", Concentration::milli_molar(0.5));
  Rng rng(31);

  const auto point_sigma = [&](std::size_t replicates) {
    std::vector<double> means;
    for (int trial = 0; trial < 24; ++trial) {
      double sum = 0.0;
      for (std::size_t r = 0; r < replicates; ++r) {
        sum += sensor.try_measure(level, rng).value().response_a;
      }
      means.push_back(sum / static_cast<double>(replicates));
    }
    return analysis::blank_sigma(means);
  };
  const double single = point_sigma(1);
  const double averaged = point_sigma(9);
  EXPECT_LT(averaged, 0.7 * single);
}

TEST(Protocol, DeterministicGivenSeed) {
  const CatalogEntry entry =
      try_entry("MWCNT/Nafion + GOD (this work)").value();
  const BiosensorModel sensor(entry.spec);
  const auto series = standard_series(entry.published.range_low,
                                      entry.published.range_high);
  ProtocolOptions options;
  options.blank_repeats = 4;
  options.replicates = 1;
  const CalibrationProtocol protocol(options);
  Rng a(5), b(5);
  const auto out_a = protocol.try_run(sensor, series, a).value();
  const auto out_b = protocol.try_run(sensor, series, b).value();
  EXPECT_DOUBLE_EQ(out_a.result.fit.slope, out_b.result.fit.slope);
  EXPECT_DOUBLE_EQ(out_a.result.lod.milli_molar(),
                   out_b.result.lod.milli_molar());
}

TEST(Protocol, RejectsBadOptions) {
  ProtocolOptions options;
  options.blank_repeats = 1;
  EXPECT_THROW(CalibrationProtocol{options}, SpecError);
  options.blank_repeats = 4;
  options.replicates = 0;
  EXPECT_THROW(CalibrationProtocol{options}, SpecError);
}

TEST(Protocol, RejectsShortSeries) {
  const CatalogEntry entry =
      try_entry("MWCNT/Nafion + GOD (this work)").value();
  const BiosensorModel sensor(entry.spec);
  Rng rng(1);
  const CalibrationProtocol protocol;
  const std::vector<Concentration> short_series = {
      Concentration{}, Concentration::milli_molar(1.0)};
  const auto outcome = protocol.try_run(sensor, short_series, rng);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, ErrorCode::kSpec);
}

}  // namespace
}  // namespace biosens::core
