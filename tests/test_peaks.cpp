// Voltammogram peak extraction on synthetic curves with known answers.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/peaks.hpp"
#include "common/expected.hpp"

namespace biosens::analysis {
namespace {

// Builds a synthetic CV: forward branch sweeps +0.2 -> -0.6 V with a
// Gaussian dip of given height at e_peak on a linear baseline; reverse
// branch mirrors with a bump.
electrochem::Voltammogram synthetic_cv(double peak_height_a,
                                       double e_peak_v,
                                       double baseline_slope = 1e-7,
                                       double baseline_offset = -2e-7) {
  electrochem::Voltammogram vg;
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    const double e = 0.2 - 0.8 * i / (n - 1.0);
    const double base = baseline_offset + baseline_slope * e;
    const double dip =
        peak_height_a * std::exp(-std::pow((e - e_peak_v) / 0.05, 2));
    vg.push(e, base - dip);
  }
  vg.turning_index = n;
  for (int i = 0; i < n; ++i) {
    const double e = -0.6 + 0.8 * i / (n - 1.0);
    const double base = -baseline_offset + baseline_slope * e;
    const double bump =
        0.5 * peak_height_a *
        std::exp(-std::pow((e - e_peak_v - 0.05) / 0.05, 2));
    vg.push(e, base + bump);
  }
  return vg;
}

TEST(Peaks, FindsCathodicDip) {
  const auto vg = synthetic_cv(1e-6, -0.1);
  const auto peak = try_find_cathodic_peak(vg).value();
  ASSERT_TRUE(peak.has_value());
  EXPECT_NEAR(peak->potential_v, -0.1, 0.01);
  EXPECT_NEAR(peak->height_a, 1e-6, 0.05e-6);
}

TEST(Peaks, FindsAnodicBump) {
  const auto vg = synthetic_cv(1e-6, -0.1);
  const auto peak = try_find_anodic_peak(vg).value();
  ASSERT_TRUE(peak.has_value());
  EXPECT_NEAR(peak->potential_v, -0.05, 0.02);
  EXPECT_NEAR(peak->height_a, 0.5e-6, 0.05e-6);
}

TEST(Peaks, BaselineSlopeDoesNotBiasHeight) {
  // Same dip on a steep baseline: corrected height unchanged.
  const auto flat = synthetic_cv(1e-6, -0.1, 0.0);
  const auto steep = synthetic_cv(1e-6, -0.1, 3e-6);
  const double h_flat = try_find_cathodic_peak(flat).value()->height_a;
  const double h_steep = try_find_cathodic_peak(steep).value()->height_a;
  EXPECT_NEAR(h_flat, h_steep, 0.1e-6);
}

TEST(Peaks, FlatCurveHasNoPeak) {
  electrochem::Voltammogram vg;
  const int n = 200;
  for (int i = 0; i < n; ++i) vg.push(0.2 - 0.8 * i / (n - 1.0), 1e-7);
  vg.turning_index = n;
  for (int i = 0; i < n; ++i) vg.push(-0.6 + 0.8 * i / (n - 1.0), -1e-7);
  EXPECT_FALSE(try_find_cathodic_peak(vg).value().has_value());
  EXPECT_FALSE(try_find_anodic_peak(vg).value().has_value());
}

TEST(Peaks, PeakSeparationFromBothBranches) {
  const auto vg = synthetic_cv(1e-6, -0.1);
  const auto sep = peak_separation(vg);
  ASSERT_TRUE(sep.has_value());
  EXPECT_NEAR(sep->volts(), 0.05, 0.02);
}

TEST(Peaks, HysteresisAreaPositiveAndScales) {
  const auto small = synthetic_cv(0.5e-6, -0.1);
  const auto large = synthetic_cv(2e-6, -0.1);
  const double a_small = try_hysteresis_area(small).value();
  const double a_large = try_hysteresis_area(large).value();
  EXPECT_GT(a_small, 0.0);
  EXPECT_GT(a_large, a_small);
}

TEST(Peaks, RejectsDegenerateVoltammograms) {
  electrochem::Voltammogram tiny;
  tiny.push(0.0, 0.0);
  tiny.push(0.1, 0.0);
  const auto too_short = try_find_cathodic_peak(tiny);
  ASSERT_FALSE(too_short.has_value());
  EXPECT_EQ(too_short.error().code, ErrorCode::kAnalysis);

  electrochem::Voltammogram bad_turn;
  for (int i = 0; i < 20; ++i) bad_turn.push(0.1 * i, 0.0);
  bad_turn.turning_index = 0;
  const auto turn_out_of_range = try_find_cathodic_peak(bad_turn);
  ASSERT_FALSE(turn_out_of_range.has_value());
  EXPECT_EQ(turn_out_of_range.error().code, ErrorCode::kAnalysis);

  // A sweep that never leaves 0 V: no line can be fitted to its branches.
  electrochem::Voltammogram unswept;
  for (int i = 0; i < 40; ++i) unswept.push(0.0, 1e-9 * i);
  unswept.turning_index = 20;
  for (const auto& found :
       {try_find_anodic_peak(unswept), try_find_cathodic_peak(unswept)}) {
    ASSERT_FALSE(found.has_value());
    EXPECT_EQ(found.error().code, ErrorCode::kAnalysis);
  }

  // A staircase sweep in 125 mV steps of 50 samples each, with a dip on
  // the -0.375 V step: the pre-peak baseline window then holds only the
  // -0.25 V step, a single potential no baseline can be fitted through.
  // That is no peak, as for a window too short to fit, not an error.
  electrochem::Voltammogram stairs;
  for (int i = 0; i < 400; ++i) {
    const double e = 0.25 - 0.125 * (i / 50);
    stairs.push(e, i / 50 == 5 ? -1e-6 : 0.0);
  }
  stairs.turning_index = 400;
  for (int i = 0; i < 400; ++i) stairs.push(-0.625 + 0.125 * (i / 50), 0.0);
  const auto peak = try_find_cathodic_peak(stairs);
  ASSERT_TRUE(peak.has_value()) << peak.error().describe();
  EXPECT_FALSE(peak.value().has_value());
}

TEST(Peaks, PeakIndexRefersIntoVoltammogram) {
  const auto vg = synthetic_cv(1e-6, -0.1);
  const auto peak = try_find_cathodic_peak(vg).value();
  ASSERT_TRUE(peak.has_value());
  ASSERT_LT(peak->index, vg.size());
  EXPECT_DOUBLE_EQ(vg.potential_v[peak->index], peak->potential_v);
}

}  // namespace
}  // namespace biosens::analysis
