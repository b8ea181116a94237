// Calibration engine: linear-region detection, sensitivity, LOD.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/calibration.hpp"
#include "common/error.hpp"

namespace biosens::analysis {
namespace {

// Synthetic Michaelis-Menten responses: i = imax * c / (Km + c) over a
// grid; this is exactly the saturation shape the engine must detect.
std::vector<CalibrationPoint> mm_points(double imax_a, double km_mm,
                                        const std::vector<double>& grid) {
  std::vector<CalibrationPoint> pts;
  for (double c : grid) {
    pts.push_back({Concentration::milli_molar(c),
                   imax_a * c / (km_mm + c)});
  }
  return pts;
}

const Area kArea = Area::square_millimeters(1.0);

TEST(Calibration, RecoversSlopeOfPureLine) {
  std::vector<CalibrationPoint> pts;
  for (double c : {0.0, 0.5, 1.0, 1.5, 2.0}) {
    pts.push_back({Concentration::milli_molar(c), 2e-6 * c});
  }
  const CalibrationEngine engine;
  const CalibrationResult r = engine.try_calibrate(pts, 1e-9, kArea).value();
  EXPECT_NEAR(r.fit.slope, 2e-6, 1e-12);
  EXPECT_EQ(r.points_in_linear_region, 5u);
  EXPECT_FALSE(r.saturation_observed);
  EXPECT_DOUBLE_EQ(r.linear_range_high.milli_molar(), 2.0);
  // Sensitivity = slope / area = 2e-6 A/mM / 1e-6 m^2 = 2 canonical.
  EXPECT_NEAR(r.sensitivity.raw(), 2.0, 1e-9);
}

TEST(Calibration, DetectsSaturationOnset) {
  // Km = 19 -> 5% deviation at c = 1.0; points beyond must be cut.
  const std::vector<double> grid = {0.0,  0.125, 0.25, 0.375, 0.5,
                                    0.75, 1.0,   1.5,  2.0,   3.0};
  const auto pts = mm_points(1e-6, 19.0, grid);
  const CalibrationEngine engine;
  const CalibrationResult r = engine.try_calibrate(pts, 0.0, kArea).value();
  EXPECT_TRUE(r.saturation_observed);
  EXPECT_LE(r.linear_range_high.milli_molar(), 2.0);
  EXPECT_GE(r.linear_range_high.milli_molar(), 1.0);
}

TEST(Calibration, DeepSaturationCutsEarly) {
  const std::vector<double> grid = {0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0};
  const auto pts = mm_points(1e-6, 1.0, grid);  // Km = 1: curls over fast
  const CalibrationEngine engine;
  const CalibrationResult r = engine.try_calibrate(pts, 0.0, kArea).value();
  EXPECT_TRUE(r.saturation_observed);
  EXPECT_LE(r.linear_range_high.milli_molar(), 2.0);
}

TEST(Calibration, LodIsThreeSigmaOverSlope) {
  std::vector<CalibrationPoint> pts;
  for (double c : {0.0, 0.5, 1.0, 1.5}) {
    pts.push_back({Concentration::milli_molar(c), 1e-6 * c});
  }
  const CalibrationEngine engine;
  const CalibrationResult r = engine.try_calibrate(pts, 2e-9, kArea).value();
  EXPECT_NEAR(r.lod.milli_molar(), 3.0 * 2e-9 / 1e-6, 1e-12);
  EXPECT_NEAR(r.loq.milli_molar(), 10.0 * 2e-9 / 1e-6, 1e-12);
  EXPECT_DOUBLE_EQ(r.blank_sigma_a, 2e-9);
}

TEST(Calibration, NoiseAllowanceKeepsJitteredPoints) {
  // Two consecutive points off by 3 sigma truncate the range when the
  // engine is told the points are noiseless, but survive when the
  // allowance knows the point noise.
  std::vector<CalibrationPoint> pts;
  const double sigma = 5e-9;
  for (double c : {0.0, 0.5, 1.0, 1.5, 2.0, 2.5}) {
    double y = 1e-7 * c;
    if (c >= 2.0) y += 3.0 * sigma;
    pts.push_back({Concentration::milli_molar(c), y});
  }
  const CalibrationEngine engine;
  const CalibrationResult strict =
      engine.try_calibrate(pts, sigma, kArea, 0.0).value();
  const CalibrationResult tolerant =
      engine.try_calibrate(pts, sigma, kArea, sigma).value();
  EXPECT_TRUE(strict.saturation_observed);
  EXPECT_DOUBLE_EQ(strict.linear_range_high.milli_molar(), 1.5);
  EXPECT_FALSE(tolerant.saturation_observed);
  EXPECT_DOUBLE_EQ(tolerant.linear_range_high.milli_molar(), 2.5);
}

TEST(Calibration, SingleOutlierDoesNotTruncateRange) {
  // One 3-sigma excursion mid-series is noise, not saturation.
  std::vector<CalibrationPoint> pts;
  const double sigma = 5e-9;
  for (double c : {0.0, 0.5, 1.0, 1.5, 2.0, 2.5}) {
    double y = 1e-7 * c;
    if (c == 2.0) y += 3.0 * sigma;
    pts.push_back({Concentration::milli_molar(c), y});
  }
  const CalibrationEngine engine;
  const CalibrationResult r =
      engine.try_calibrate(pts, sigma, kArea, 0.0).value();
  EXPECT_FALSE(r.saturation_observed);
  EXPECT_DOUBLE_EQ(r.linear_range_high.milli_molar(), 2.5);
}

TEST(Calibration, ReportsRangeLowAsLowestLevel) {
  std::vector<CalibrationPoint> pts;
  for (double c : {0.2, 0.6, 1.0, 1.4}) {
    pts.push_back({Concentration::milli_molar(c), 1e-6 * c});
  }
  const CalibrationEngine engine;
  const CalibrationResult r = engine.try_calibrate(pts, 1e-9, kArea).value();
  EXPECT_DOUBLE_EQ(r.linear_range_low.milli_molar(), 0.2);
}

TEST(Calibration, UnsortedInputHandled) {
  std::vector<CalibrationPoint> pts;
  for (double c : {2.0, 0.0, 1.0, 0.5, 1.5}) {
    pts.push_back({Concentration::milli_molar(c), 3e-6 * c});
  }
  const CalibrationEngine engine;
  const CalibrationResult r = engine.try_calibrate(pts, 1e-9, kArea).value();
  EXPECT_NEAR(r.fit.slope, 3e-6, 1e-12);
  EXPECT_EQ(r.points_in_linear_region, 5u);
}

TEST(Calibration, RejectsDeadSensor) {
  std::vector<CalibrationPoint> pts;
  for (double c : {0.0, 1.0, 2.0}) {
    pts.push_back({Concentration::milli_molar(c), 0.0});
  }
  const CalibrationEngine engine;
  const auto dead = engine.try_calibrate(pts, 1e-9, kArea);
  ASSERT_FALSE(dead.has_value());
  EXPECT_EQ(dead.error().code, ErrorCode::kAnalysis);
}

TEST(Calibration, RejectsTooFewPoints) {
  std::vector<CalibrationPoint> pts = {
      {Concentration::milli_molar(0.0), 0.0},
      {Concentration::milli_molar(1.0), 1e-6}};
  const CalibrationEngine engine;
  const auto too_few = engine.try_calibrate(pts, 1e-9, kArea);
  ASSERT_FALSE(too_few.has_value());
  EXPECT_EQ(too_few.error().code, ErrorCode::kAnalysis);

  // Six points, but all at one concentration: no line through the seed.
  const std::vector<CalibrationPoint> one_level(
      6, {Concentration::milli_molar(0.5), 1e-6});
  const auto single_level = engine.try_calibrate(one_level, 1e-9, kArea);
  ASSERT_FALSE(single_level.has_value());
  EXPECT_EQ(single_level.error().code, ErrorCode::kAnalysis);
}

TEST(Calibration, OptionsValidated) {
  CalibrationOptions bad;
  bad.linearity_tolerance = 0.0;
  EXPECT_THROW(CalibrationEngine{bad}, SpecError);
  bad.linearity_tolerance = 0.05;
  bad.seed_points = 1;
  EXPECT_THROW(CalibrationEngine{bad}, SpecError);
}

TEST(BlankSigma, MatchesSampleStddev) {
  const std::vector<double> blanks = {1e-9, 3e-9, 2e-9, 2e-9};
  EXPECT_NEAR(blank_sigma(blanks), std::sqrt(2.0 / 3.0) * 1e-9, 1e-15);
  EXPECT_THROW(blank_sigma(std::vector<double>{1e-9}), AnalysisError);
}

// Property: detected range tracks Km across two decades.
class RangeTracksKm : public ::testing::TestWithParam<double> {};

TEST_P(RangeTracksKm, DetectedRangeScalesWithKm) {
  const double km = GetParam();
  // Grid spanning 0..0.6*Km. The running-fit criterion is looser than
  // the origin-tangent 5% rule (the fit rotates into the curvature), so
  // the detected range lands between the naive 5% point (Km/19) and a
  // modest multiple of it — and must scale with Km.
  std::vector<double> grid;
  for (int i = 0; i <= 24; ++i) grid.push_back(0.025 * km * i);
  const auto pts = mm_points(1e-6, km, grid);
  const CalibrationEngine engine;
  const CalibrationResult r = engine.try_calibrate(pts, 0.0, kArea).value();
  EXPECT_TRUE(r.saturation_observed);
  const double five_pct = km / 19.0;
  EXPECT_GT(r.linear_range_high.milli_molar(), five_pct);
  EXPECT_LT(r.linear_range_high.milli_molar(), 0.55 * km);
}

INSTANTIATE_TEST_SUITE_P(KmDecades, RangeTracksKm,
                         ::testing::Values(0.4, 2.0, 10.0, 40.0));

}  // namespace
}  // namespace biosens::analysis
