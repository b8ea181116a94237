// SensorSpec compositional rules (the platform's type system).
#include <gtest/gtest.h>

#include "common/expected.hpp"
#include "core/catalog.hpp"
#include "core/spec.hpp"

namespace biosens::core {
namespace {

SensorSpec oxidase_spec() {
  SensorSpec spec;
  spec.name = "test glucose sensor";
  spec.citation = "test";
  spec.target = "glucose";
  spec.technique = Technique::kChronoamperometry;
  spec.assembly.geometry = electrode::microfabricated_gold();
  spec.assembly.modification = electrode::mwcnt_nafion();
  spec.assembly.immobilization = electrode::try_immobilization_defaults(
      electrode::ImmobilizationMethod::kAdsorption).value();
  spec.assembly.enzyme = *chem::try_enzyme("GOD").value();
  spec.assembly.substrate = "glucose";
  spec.assembly.loading_monolayers = 0.5;
  return spec;
}

SensorSpec cyp_spec() {
  SensorSpec spec;
  spec.name = "test CP sensor";
  spec.citation = "test";
  spec.target = "cyclophosphamide";
  spec.technique = Technique::kCyclicVoltammetry;
  spec.assembly.geometry = electrode::screen_printed_electrode();
  spec.assembly.modification = electrode::mwcnt_chloroform();
  spec.assembly.immobilization = electrode::try_immobilization_defaults(
      electrode::ImmobilizationMethod::kAdsorption).value();
  spec.assembly.enzyme = *chem::try_enzyme("CYP2B6").value();
  spec.assembly.substrate = "cyclophosphamide";
  spec.assembly.loading_monolayers = 0.5;
  return spec;
}

TEST(Spec, ValidCompositionsPass) {
  EXPECT_NO_THROW(oxidase_spec().try_validate().value());
  EXPECT_NO_THROW(cyp_spec().try_validate().value());
}

TEST(Spec, OxidaseMustUseChronoamperometry) {
  SensorSpec spec = oxidase_spec();
  spec.technique = Technique::kCyclicVoltammetry;
  const auto v = spec.try_validate();
  ASSERT_FALSE(v.has_value());
  EXPECT_EQ(v.error().code, ErrorCode::kSpec);
}

TEST(Spec, CypMustUseVoltammetry) {
  SensorSpec spec = cyp_spec();
  spec.technique = Technique::kChronoamperometry;
  const auto v = spec.try_validate();
  ASSERT_FALSE(v.has_value());
  EXPECT_EQ(v.error().code, ErrorCode::kSpec);
}

TEST(Spec, DpvAcceptedForCyp) {
  SensorSpec spec = cyp_spec();
  spec.technique = Technique::kDifferentialPulseVoltammetry;
  EXPECT_NO_THROW(spec.try_validate().value());
}

TEST(Spec, TargetMustMatchAssemblySubstrate) {
  SensorSpec spec = oxidase_spec();
  spec.target = "lactate";
  const auto v = spec.try_validate();
  ASSERT_FALSE(v.has_value());
  EXPECT_EQ(v.error().code, ErrorCode::kSpec);
}

TEST(Spec, EnzymeMustTurnOverTarget) {
  SensorSpec spec = oxidase_spec();
  spec.assembly.enzyme = *chem::try_enzyme("LOD").value();  // lactate oxidase
  const auto v = spec.try_validate();
  ASSERT_FALSE(v.has_value());
  EXPECT_EQ(v.error().code, ErrorCode::kSpec);
}

TEST(Spec, OxidaseStepMustOxidizeH2o2) {
  SensorSpec spec = oxidase_spec();
  spec.ca_step_potential = Potential::millivolts(200.0);  // too low
  const auto v = spec.try_validate();
  ASSERT_FALSE(v.has_value());
  EXPECT_EQ(v.error().code, ErrorCode::kSpec);
}

TEST(Spec, CvWindowMustBracketFormalPotential) {
  SensorSpec spec = cyp_spec();
  spec.cv_start = Potential::millivolts(400.0);
  spec.cv_vertex = Potential::millivolts(100.0);  // E0 ~ -95 mV outside
  const auto v = spec.try_validate();
  ASSERT_FALSE(v.has_value());
  EXPECT_EQ(v.error().code, ErrorCode::kSpec);
}

TEST(Spec, NameRequired) {
  SensorSpec spec = oxidase_spec();
  spec.name.clear();
  const auto v = spec.try_validate();
  ASSERT_FALSE(v.has_value());
  EXPECT_EQ(v.error().code, ErrorCode::kSpec);
}

TEST(Spec, TechniqueNames) {
  EXPECT_EQ(to_string(Technique::kChronoamperometry), "chronoamperometry");
  EXPECT_EQ(to_string(Technique::kCyclicVoltammetry), "cyclic voltammetry");
  EXPECT_EQ(to_string(Technique::kDifferentialPulseVoltammetry),
            "differential pulse voltammetry");
}

TEST(Spec, IsVoltammetric) {
  EXPECT_FALSE(oxidase_spec().is_voltammetric());
  EXPECT_TRUE(cyp_spec().is_voltammetric());
}

TEST(Spec, AllCatalogSpecsValidate) {
  // Table 1 pairing rules hold for every shipped device.
  for (const CatalogEntry& e : full_catalog()) {
    EXPECT_NO_THROW(e.spec.try_validate().value()) << e.spec.name;
    const bool is_cyp = e.spec.assembly.enzyme.family ==
                        chem::EnzymeFamily::kCytochromeP450;
    EXPECT_EQ(e.spec.is_voltammetric(), is_cyp) << e.spec.name;
  }
}

}  // namespace
}  // namespace biosens::core
