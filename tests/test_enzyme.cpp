// Enzyme catalog: probes of Table 1, kinetics lookups, coverage bounds.
#include <gtest/gtest.h>

#include "chem/enzyme.hpp"
#include "common/error.hpp"

namespace biosens::chem {
namespace {

TEST(Enzyme, CatalogContainsTable1Probes) {
  for (const char* name :
       {"glucose oxidase", "lactate oxidase", "glutamate oxidase",
        "CYP102A1", "CYP1A2", "CYP2B6", "CYP3A4"}) {
    EXPECT_TRUE(find_enzyme(name).has_value()) << name;
  }
}

TEST(Enzyme, AbbreviationsResolve) {
  EXPECT_EQ(try_enzyme("GOD").value()->name, "glucose oxidase");
  EXPECT_EQ(try_enzyme("LOD").value()->name, "lactate oxidase");
  EXPECT_EQ(try_enzyme("GlOD").value()->name, "glutamate oxidase");
  EXPECT_EQ(try_enzyme("custom-CYP").value()->name, "CYP102A1");
}

TEST(Enzyme, FamiliesMatchTable1) {
  EXPECT_EQ(try_enzyme("GOD").value()->family, EnzymeFamily::kOxidase);
  EXPECT_EQ(try_enzyme("LOD").value()->family, EnzymeFamily::kOxidase);
  EXPECT_EQ(try_enzyme("GlOD").value()->family, EnzymeFamily::kOxidase);
  for (const char* cyp : {"CYP102A1", "CYP1A2", "CYP2B6", "CYP3A4"}) {
    EXPECT_EQ(try_enzyme(cyp).value()->family,
              EnzymeFamily::kCytochromeP450)
        << cyp;
  }
}

TEST(Enzyme, SubstratePairingsMatchTable1) {
  EXPECT_TRUE(try_enzyme("GOD").value()->kinetics_for("glucose").has_value());
  EXPECT_TRUE(try_enzyme("LOD").value()->kinetics_for("lactate").has_value());
  EXPECT_TRUE(
      try_enzyme("GlOD").value()->kinetics_for("glutamate").has_value());
  EXPECT_TRUE(try_enzyme("custom-CYP")
                  .value()
                  ->kinetics_for("arachidonic acid")
                  .has_value());
  EXPECT_TRUE(
      try_enzyme("CYP1A2").value()->kinetics_for("ftorafur").has_value());
  EXPECT_TRUE(try_enzyme("CYP2B6")
                  .value()
                  ->kinetics_for("cyclophosphamide")
                  .has_value());
  EXPECT_TRUE(
      try_enzyme("CYP3A4").value()->kinetics_for("ifosfamide").has_value());
}

TEST(Enzyme, WrongSubstrateHasNoKinetics) {
  EXPECT_FALSE(try_enzyme("GOD").value()->kinetics_for("lactate").has_value());
  EXPECT_FALSE(
      try_enzyme("CYP2B6").value()->kinetics_for("glucose").has_value());
}

TEST(Enzyme, OxidasesTransferTwoElectrons) {
  // H2O2 oxidation at the electrode carries 2 electrons per turnover.
  EXPECT_EQ(try_enzyme("GOD").value()->kinetics_for("glucose")->electrons, 2);
  EXPECT_EQ(try_enzyme("LOD").value()->kinetics_for("lactate")->electrons, 2);
}

TEST(Enzyme, MonolayerCoverageIsPicomolPerCm2Scale) {
  // Adsorbed protein monolayers are single-digit pmol/cm^2.
  for (const Enzyme& e : enzyme_catalog()) {
    const double pmol_cm2 = e.monolayer_coverage().pico_mol_per_cm2();
    EXPECT_GT(pmol_cm2, 1.0) << e.name;
    EXPECT_LT(pmol_cm2, 20.0) << e.name;
  }
}

TEST(Enzyme, LargerFootprintLowersCoverage) {
  Enzyme big;
  big.footprint_nm = 10.0;
  Enzyme small;
  small.footprint_nm = 5.0;
  EXPECT_LT(big.monolayer_coverage().mol_per_m2(),
            small.monolayer_coverage().mol_per_m2());
  // Quadratic: halving the footprint quadruples the coverage.
  EXPECT_NEAR(small.monolayer_coverage().mol_per_m2() /
                  big.monolayer_coverage().mol_per_m2(),
              4.0, 1e-9);
}

TEST(Enzyme, CypFormalPotentialsSitInsideCvWindow) {
  for (const char* cyp : {"CYP102A1", "CYP1A2", "CYP2B6", "CYP3A4"}) {
    const double e0 = try_enzyme(cyp).value()->formal_potential.volts();
    EXPECT_GT(e0, -0.5) << cyp;  // inside the +0.2 .. -0.6 V sweep
    EXPECT_LT(e0, 0.1) << cyp;
  }
}

TEST(Enzyme, UnknownIsASpecError) {
  EXPECT_FALSE(find_enzyme("telomerase").has_value());
  const auto unknown = try_enzyme("telomerase");
  ASSERT_FALSE(unknown.has_value());
  EXPECT_EQ(unknown.error().code, ErrorCode::kSpec);
}

TEST(Enzyme, FamilyNames) {
  EXPECT_EQ(to_string(EnzymeFamily::kOxidase), "oxidase");
  EXPECT_EQ(to_string(EnzymeFamily::kCytochromeP450), "cytochrome P450");
}

}  // namespace
}  // namespace biosens::chem
