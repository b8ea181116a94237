// Michaelis-Menten rate laws and their linearization — the chemical basis
// of the sensitivity / linear-range figures of merit.
#include <gtest/gtest.h>

#include "chem/kinetics.hpp"
#include "common/expected.hpp"

namespace biosens::chem {
namespace {

MichaelisMenten make_mm(double kcat = 100.0, double km_mm = 2.0) {
  return MichaelisMenten::try_create(Rate::per_second(kcat),
                                     Concentration::milli_molar(km_mm))
      .value();
}

TEST(MichaelisMenten, HalfSaturationAtKm) {
  const MichaelisMenten mm = make_mm(100.0, 2.0);
  EXPECT_NEAR(mm.turnover_per_second(Concentration::milli_molar(2.0)), 50.0,
              1e-12);
}

TEST(MichaelisMenten, SaturatesAtKcat) {
  const MichaelisMenten mm = make_mm(100.0, 2.0);
  EXPECT_NEAR(mm.turnover_per_second(Concentration::molar(10.0)), 100.0,
              0.1);
}

TEST(MichaelisMenten, ZeroAndNegativeSubstrate) {
  const MichaelisMenten mm = make_mm();
  EXPECT_DOUBLE_EQ(mm.turnover_per_second(Concentration{}), 0.0);
  EXPECT_DOUBLE_EQ(
      mm.turnover_per_second(Concentration::milli_molar(-1.0)), 0.0);
}

TEST(MichaelisMenten, LinearSlopeIsKcatOverKm) {
  const MichaelisMenten mm = make_mm(100.0, 2.0);
  EXPECT_DOUBLE_EQ(mm.linear_slope(), 50.0);
  // v(S) ~ slope*S for S << Km.
  const double s = 1e-4;
  EXPECT_NEAR(mm.turnover_per_second(Concentration::milli_molar(s)),
              50.0 * s, 50.0 * s * 1e-4);
}

TEST(MichaelisMenten, ArealFluxScalesWithCoverage) {
  const MichaelisMenten mm = make_mm();
  const Concentration s = Concentration::milli_molar(1.0);
  const double j1 =
      mm.areal_flux(SurfaceCoverage::mol_per_m2(1e-8), s);
  const double j2 =
      mm.areal_flux(SurfaceCoverage::mol_per_m2(2e-8), s);
  EXPECT_NEAR(j2 / j1, 2.0, 1e-12);
}

TEST(MichaelisMenten, LinearityDeviationFormula) {
  const MichaelisMenten mm = make_mm(100.0, 2.0);
  // deviation(S) = S / (Km + S).
  EXPECT_NEAR(mm.linearity_deviation(Concentration::milli_molar(2.0)), 0.5,
              1e-12);
  EXPECT_DOUBLE_EQ(mm.linearity_deviation(Concentration{}), 0.0);
}

TEST(MichaelisMenten, LinearLimitInvertsDeviation) {
  const MichaelisMenten mm = make_mm(100.0, 19.0);
  const Concentration limit = mm.try_linear_limit(0.05).value();
  EXPECT_NEAR(limit.milli_molar(), 1.0, 1e-9);
  // At that limit the deviation is exactly the criterion.
  EXPECT_NEAR(mm.linearity_deviation(limit), 0.05, 1e-12);
}

TEST(MichaelisMenten, RejectsNonPhysicalParameters) {
  const auto zero_kcat = MichaelisMenten::try_create(
      Rate::per_second(0.0), Concentration::milli_molar(1.0));
  ASSERT_FALSE(zero_kcat.has_value());
  EXPECT_EQ(zero_kcat.error().code, ErrorCode::kSpec);
  const auto zero_km = MichaelisMenten::try_create(
      Rate::per_second(1.0), Concentration::milli_molar(0.0));
  ASSERT_FALSE(zero_km.has_value());
  EXPECT_EQ(zero_km.error().code, ErrorCode::kSpec);
  for (const double max_deviation : {0.0, 1.0}) {
    const auto limit = make_mm().try_linear_limit(max_deviation);
    ASSERT_FALSE(limit.has_value()) << max_deviation;
    EXPECT_EQ(limit.error().code, ErrorCode::kSpec) << max_deviation;
  }
}

TEST(CompetitiveInhibition, ScalesKm) {
  const Concentration km = Concentration::milli_molar(2.0);
  const Concentration app = competitive_km(
      km, Concentration::milli_molar(3.0), Concentration::milli_molar(1.0));
  EXPECT_NEAR(app.milli_molar(), 8.0, 1e-12);
  // No inhibitor -> unchanged.
  EXPECT_NEAR(competitive_km(km, Concentration{},
                             Concentration::milli_molar(1.0))
                  .milli_molar(),
              2.0, 1e-12);
}

TEST(SubstrateInhibition, PeaksAndDeclines) {
  const Rate kcat = Rate::per_second(100.0);
  const Concentration km = Concentration::milli_molar(1.0);
  const Concentration ksi = Concentration::milli_molar(10.0);
  const double v_low = substrate_inhibited_turnover(
      kcat, km, ksi, Concentration::milli_molar(1.0));
  const double v_opt = substrate_inhibited_turnover(
      kcat, km, ksi, Concentration::milli_molar(3.16));  // sqrt(Km*Ksi)
  const double v_high = substrate_inhibited_turnover(
      kcat, km, ksi, Concentration::milli_molar(100.0));
  EXPECT_GT(v_opt, v_low);
  EXPECT_GT(v_opt, v_high);
}

// Property: turnover is monotone in substrate for plain MM.
class MmMonotone : public ::testing::TestWithParam<double> {};

TEST_P(MmMonotone, IncreasingInSubstrate) {
  const MichaelisMenten mm = make_mm(250.0, GetParam());
  double prev = -1.0;
  for (double s : {0.0, 0.01, 0.1, 0.5, 1.0, 5.0, 20.0, 100.0}) {
    const double v = mm.turnover_per_second(Concentration::milli_molar(s));
    EXPECT_GE(v, prev);
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(KmValues, MmMonotone,
                         ::testing::Values(0.05, 0.5, 2.0, 20.0));

}  // namespace
}  // namespace biosens::chem
