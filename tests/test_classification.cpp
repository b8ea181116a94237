// The core->classify bridge and the Platform's unmixed assay.
#include <gtest/gtest.h>

#include "core/catalog.hpp"
#include "core/classification.hpp"
#include "core/platform.hpp"

namespace biosens::core {
namespace {

TEST(Classification, PlatformGlucoseSensorMatchesSection3) {
  // "Target: molecules / Sensing element: enzymes / Transduction:
  // electrochemical (amperometric) / Nanotechnology-based: carbon
  // nanotubes / Electrode type: integrated (microfabricated)".
  const Classification c = classify_spec(
      try_entry("MWCNT/Nafion + GOD (this work)").value().spec);
  EXPECT_EQ(c.target, classify::TargetClass::kMetabolite);
  EXPECT_EQ(c.element, classify::SensingElement::kEnzyme);
  EXPECT_EQ(c.transduction, classify::Transduction::kAmperometric);
  EXPECT_EQ(c.nanomaterial, classify::Nanomaterial::kCarbonNanotube);
  EXPECT_EQ(c.electrode,
            classify::ElectrodeTechnology::kMicrofabricated);
}

TEST(Classification, CypSensorIsADisposableDrugSensor) {
  const Classification c = classify_spec(
      try_entry("MWCNT + CYP (cyclophosphamide)").value().spec);
  EXPECT_EQ(c.target, classify::TargetClass::kDrug);
  EXPECT_EQ(c.nanomaterial, classify::Nanomaterial::kCarbonNanotube);
  EXPECT_EQ(c.electrode, classify::ElectrodeTechnology::kDisposable);
}

TEST(Classification, TitanateComparatorIsNotCarbon) {
  const Classification c =
      classify_spec(try_entry("Titanate NT + LOD").value().spec);
  EXPECT_EQ(c.nanomaterial, classify::Nanomaterial::kOtherNanotube);
}

TEST(Classification, NafionOnlyComparatorHasNoNanomaterial) {
  const Classification c =
      classify_spec(try_entry("Nafion + GlOD").value().spec);
  EXPECT_EQ(c.nanomaterial, classify::Nanomaterial::kNone);
  EXPECT_EQ(c.electrode, classify::ElectrodeTechnology::kMicrofabricated);
}

class UnmixedPlatformFixture : public ::testing::Test {
 protected:
  UnmixedPlatformFixture() {
    panel_.add_sensor(try_entry("MWCNT + CYP (cyclophosphamide)").value());
    panel_.add_sensor(try_entry("MWCNT + CYP (ifosfamide)").value());
    Rng rng(31);
    ProtocolOptions options;
    options.blank_repeats = 8;
    options.replicates = 1;
    panel_.try_calibrate_all(rng, options).value();
  }
  Platform panel_;
};

TEST_F(UnmixedPlatformFixture, UnmixedAssayRemovesCrossTalk) {
  chem::Sample cocktail = chem::blank_sample();
  cocktail.set("cyclophosphamide", Concentration::micro_molar(30.0));
  cocktail.set("ifosfamide", Concentration::micro_molar(100.0));

  Rng rng_naive(7), rng_unmixed(7);
  const PanelReport naive = panel_.try_assay(cocktail, rng_naive).value();
  const PanelReport unmixed = panel_.assay_unmixed(cocktail, rng_unmixed);

  // Naive CP over-reports (ifosfamide cross-talk); unmixed recovers.
  EXPECT_GT(naive.try_for_target("cyclophosphamide")
                .value()
                ->estimated.micro_molar(),
            36.0);
  EXPECT_NEAR(unmixed.try_for_target("cyclophosphamide")
                  .value()
                  ->estimated.micro_molar(),
              30.0, 4.0);
  EXPECT_NEAR(
      unmixed.try_for_target("ifosfamide").value()->estimated.micro_molar(),
      100.0, 8.0);
}

TEST_F(UnmixedPlatformFixture, QcRidesAlongWithAssays) {
  chem::Sample sample = chem::blank_sample();
  sample.set("cyclophosphamide", Concentration::micro_molar(40.0));
  Rng rng(9);
  const PanelReport report = panel_.try_assay(sample, rng).value();
  EXPECT_TRUE(report.try_for_target("cyclophosphamide").value()->qc.accepted)
      << report.try_for_target("cyclophosphamide").value()->qc.summary;
  // The drug-free channel flags "no response".
  EXPECT_FALSE(report.try_for_target("ifosfamide").value()->qc.accepted);
}

TEST(UnmixedPlatform, DegeneratePanelIsRefused) {
  Platform profens;
  profens.add_sensor(try_entry("MWCNT + CYP (naproxen)").value());
  profens.add_sensor(try_entry("MWCNT + CYP (flurbiprofen)").value());
  Rng rng(3);
  ProtocolOptions options;
  options.blank_repeats = 8;
  options.replicates = 1;
  profens.try_calibrate_all(rng, options).value();
  EXPECT_THROW(profens.assay_unmixed(chem::blank_sample(), rng),
               AnalysisError);
}

}  // namespace
}  // namespace biosens::core
