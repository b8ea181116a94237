// Closed-form transport references.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "transport/analytic.hpp"

namespace biosens::transport {
namespace {

TEST(Cottrell, MatchesFormula) {
  const int n = 2;
  const Diffusivity d = Diffusivity::cm2_per_s(1e-5);
  const Concentration c = Concentration::milli_molar(1.0);
  const Time t = Time::seconds(1.0);
  const double expected = n * constants::kFaraday * 1.0 *
                          std::sqrt(1e-9 / std::numbers::pi);
  EXPECT_NEAR(try_cottrell_current_density(n, d, c, t).value().amps_per_m2(),
              expected, expected * 1e-12);
}

TEST(Cottrell, DecaysAsInverseSqrtTime) {
  const Diffusivity d = Diffusivity::cm2_per_s(6.7e-6);
  const Concentration c = Concentration::milli_molar(5.0);
  const double j1 = try_cottrell_current_density(2, d, c, Time::seconds(1.0))
                        .value()
                        .amps_per_m2();
  const double j4 = try_cottrell_current_density(2, d, c, Time::seconds(4.0))
                        .value()
                        .amps_per_m2();
  EXPECT_NEAR(j1 / j4, 2.0, 1e-9);
}

TEST(Cottrell, RejectsNonPositiveTime) {
  const auto at_step = try_cottrell_current_density(
      2, Diffusivity::cm2_per_s(1e-5), Concentration::milli_molar(1.0),
      Time::seconds(0.0));
  ASSERT_FALSE(at_step.has_value());
  EXPECT_EQ(at_step.error().code, ErrorCode::kNumerics);
}

TEST(LimitingCurrent, LinearInConcentrationAndInverseDelta) {
  const Diffusivity d = Diffusivity::cm2_per_s(1e-5);
  const double j1 = try_limiting_current_density(
                        2, d, Concentration::milli_molar(1.0), 25e-6).value()
                        .amps_per_m2();
  const double j2 = try_limiting_current_density(
                        2, d, Concentration::milli_molar(2.0), 25e-6).value()
                        .amps_per_m2();
  const double j3 = try_limiting_current_density(
                        2, d, Concentration::milli_molar(1.0), 50e-6).value()
                        .amps_per_m2();
  EXPECT_NEAR(j2 / j1, 2.0, 1e-12);
  EXPECT_NEAR(j1 / j3, 2.0, 1e-12);
  // Magnitude: 2 * 96485 * 1e-9 * 1 / 25e-6 = 7.72 A/m^2.
  EXPECT_NEAR(j1, 7.7188, 0.01);
}

TEST(StirredLayer, ThinsWithStirRate) {
  const double slow = stirred_layer_thickness_m(100.0);
  const double fast = stirred_layer_thickness_m(400.0);
  EXPECT_GT(slow, fast);
  EXPECT_NEAR(slow, 50e-6, 1e-9);
  EXPECT_NEAR(fast, 25e-6, 1e-9);
}

TEST(StirredLayer, FlooredAtConvectiveLimit) {
  EXPECT_NEAR(stirred_layer_thickness_m(1e9), 5e-6, 1e-12);
  EXPECT_THROW(stirred_layer_thickness_m(0.0), SpecError);
}

TEST(QuiescentLayer, GrowsAsSqrtTime) {
  const Diffusivity d = Diffusivity::cm2_per_s(1e-5);
  const double d1 = quiescent_layer_thickness_m(d, Time::seconds(1.0));
  const double d4 = quiescent_layer_thickness_m(d, Time::seconds(4.0));
  EXPECT_NEAR(d4 / d1, 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(quiescent_layer_thickness_m(d, Time::seconds(0.0)), 0.0);
}

TEST(KouteckyLevich, HarmonicCombination) {
  const CurrentDensity a = CurrentDensity::amps_per_m2(2.0);
  const CurrentDensity b = CurrentDensity::amps_per_m2(2.0);
  EXPECT_NEAR(koutecky_levich(a, b).amps_per_m2(), 1.0, 1e-12);
}

TEST(KouteckyLevich, LimitedByTheSmallerBranch) {
  const CurrentDensity kin = CurrentDensity::amps_per_m2(1.0);
  const CurrentDensity lim = CurrentDensity::amps_per_m2(1000.0);
  EXPECT_NEAR(koutecky_levich(kin, lim).amps_per_m2(), 1.0, 1e-2);
  EXPECT_LT(koutecky_levich(kin, lim).amps_per_m2(), 1.0);
}

TEST(KouteckyLevich, ZeroBranchGivesZero) {
  EXPECT_DOUBLE_EQ(
      koutecky_levich(CurrentDensity{}, CurrentDensity::amps_per_m2(1.0))
          .amps_per_m2(),
      0.0);
}

}  // namespace
}  // namespace biosens::transport
