// Multi-drug panel deconvolution: the [9] serum scenario with
// cross-reactive CYP isoforms.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/math.hpp"
#include "core/catalog.hpp"
#include "core/deconvolution.hpp"

namespace biosens::core {
namespace {

class PanelFixture : public ::testing::Test {
 protected:
  PanelFixture()
      : cp_(try_entry("MWCNT + CYP (cyclophosphamide)").value().spec),
        ifos_(try_entry("MWCNT + CYP (ifosfamide)").value().spec),
        model_(characterize_panel(
            {&cp_, &ifos_},
            {Concentration::micro_molar(40.0),
             Concentration::micro_molar(80.0)})) {}

  /// Ideal panel responses for a cocktail.
  std::vector<double> respond(double cp_um, double ifos_um) {
    chem::Sample cocktail = chem::blank_sample();
    cocktail.set("cyclophosphamide", Concentration::micro_molar(cp_um));
    cocktail.set("ifosfamide", Concentration::micro_molar(ifos_um));
    return {cp_.ideal_response_a(cocktail),
            ifos_.ideal_response_a(cocktail)};
  }

  BiosensorModel cp_;
  BiosensorModel ifos_;
  PanelModel model_;
};

TEST(SolveDense, SolvesAndValidates) {
  const auto x = solve_dense({{2.0, 1.0}, {1.0, 3.0}}, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
  EXPECT_THROW(solve_dense({{1.0, 2.0}, {2.0, 4.0}}, {1.0, 2.0}),
               NumericsError);
  EXPECT_THROW(solve_dense({{1.0}}, {1.0, 2.0}), NumericsError);
}

TEST_F(PanelFixture, CrossSensitivityMatrixShape) {
  ASSERT_EQ(model_.targets.size(), 2u);
  EXPECT_EQ(model_.targets[0], "cyclophosphamide");
  EXPECT_EQ(model_.targets[1], "ifosfamide");
  // Diagonal dominates; off-diagonal cross terms exist but are small.
  EXPECT_GT(model_.slope[0][0], 5.0 * model_.slope[0][1]);
  EXPECT_GT(model_.slope[1][1], 5.0 * model_.slope[1][0]);
  EXPECT_GT(model_.slope[0][1], 0.0);  // CYP2B6 sees ifosfamide
  EXPECT_GT(model_.slope[1][0], 0.0);  // CYP3A4 sees cyclophosphamide
}

TEST_F(PanelFixture, SingleDrugNaiveAndDeconvolvedAgree) {
  const auto responses = respond(30.0, 0.0);
  const auto naive = naive_estimates(model_, responses);
  const auto unmixed = deconvolve(model_, responses);
  EXPECT_NEAR(naive[0].micro_molar(), 30.0, 2.0);
  EXPECT_NEAR(unmixed[0].micro_molar(), 30.0, 2.0);
  EXPECT_NEAR(unmixed[1].micro_molar(), 0.0, 1.5);
}

TEST_F(PanelFixture, CocktailBiasesNaiveButNotDeconvolved) {
  // CP 30 uM + ifosfamide 100 uM: the CP channel picks up the sibling
  // drug and over-reports; unmixing recovers both.
  const auto responses = respond(30.0, 100.0);
  const auto naive = naive_estimates(model_, responses);
  const auto unmixed = deconvolve(model_, responses);

  EXPECT_GT(naive[0].micro_molar(), 36.0);  // > 20% over-report
  EXPECT_NEAR(unmixed[0].micro_molar(), 30.0, 3.0);
  EXPECT_NEAR(unmixed[1].micro_molar(), 100.0, 6.0);
}

TEST_F(PanelFixture, SiblingOnlyCocktailReadsPhantomDrug) {
  // Ifosfamide alone makes the naive CP channel report phantom CP.
  const auto responses = respond(0.0, 120.0);
  const auto naive = naive_estimates(model_, responses);
  const auto unmixed = deconvolve(model_, responses);
  EXPECT_GT(naive[0].micro_molar(), 5.0);
  EXPECT_NEAR(unmixed[0].micro_molar(), 0.0, 2.0);
}

TEST_F(PanelFixture, DeconvolutionClampsNegativeNoise) {
  // Responses slightly below blank must clamp at zero, not go negative.
  std::vector<double> responses = {model_.intercept_a[0] - 1e-9,
                                   model_.intercept_a[1] - 1e-9};
  const auto unmixed = deconvolve(model_, responses);
  EXPECT_DOUBLE_EQ(unmixed[0].micro_molar(), 0.0);
  EXPECT_DOUBLE_EQ(unmixed[1].micro_molar(), 0.0);
}

TEST_F(PanelFixture, ValidatesInputs) {
  EXPECT_THROW(naive_estimates(model_, {1.0}), AnalysisError);
  EXPECT_THROW(deconvolve(model_, {1.0, 2.0, 3.0}), AnalysisError);
  EXPECT_THROW(
      characterize_panel({&cp_}, {Concentration::micro_molar(0.0)}),
      SpecError);
  EXPECT_THROW(characterize_panel({&cp_, nullptr},
                                  {Concentration::micro_molar(1.0),
                                   Concentration::micro_molar(1.0)}),
               SpecError);
}

}  // namespace
}  // namespace biosens::core
