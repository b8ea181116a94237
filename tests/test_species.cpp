// Species registry: contents, lookups, physical sanity.
#include <gtest/gtest.h>

#include "chem/species.hpp"
#include "common/expected.hpp"

namespace biosens::chem {
namespace {

TEST(Species, RegistryContainsAllPaperTargets) {
  for (const char* name :
       {"glucose", "lactate", "glutamate", "arachidonic acid",
        "cyclophosphamide", "ifosfamide", "ftorafur"}) {
    EXPECT_TRUE(find_species(name).has_value()) << name;
  }
}

TEST(Species, RegistryContainsInterferentsAndMediators) {
  for (const char* name : {"ascorbic acid", "uric acid", "paracetamol",
                           "hydrogen peroxide", "oxygen"}) {
    EXPECT_TRUE(find_species(name).has_value()) << name;
  }
}

TEST(Species, KindsAreClassified) {
  EXPECT_EQ(try_species("glucose").value()->kind, SpeciesKind::kMetabolite);
  EXPECT_EQ(try_species("cyclophosphamide").value()->kind, SpeciesKind::kDrug);
  EXPECT_EQ(try_species("arachidonic acid").value()->kind,
            SpeciesKind::kFattyAcid);
  EXPECT_EQ(try_species("ascorbic acid").value()->kind,
            SpeciesKind::kInterferent);
  EXPECT_EQ(try_species("oxygen").value()->kind, SpeciesKind::kMediator);
}

TEST(Species, DiffusivitiesAreSmallMoleculeScale) {
  for (const Species& s : species_registry()) {
    EXPECT_GT(s.diffusivity.cm2_per_s(), 1e-6) << s.name;
    EXPECT_LT(s.diffusivity.cm2_per_s(), 1e-4) << s.name;
  }
}

TEST(Species, PhysiologicalWindowsAreOrdered) {
  for (const Species& s : species_registry()) {
    EXPECT_LE(s.physiological_low.milli_molar(),
              s.physiological_high.milli_molar())
        << s.name;
  }
}

TEST(Species, GlucoseWindowIsClinical) {
  const Species& g = *try_species("glucose").value();
  // Normal fasting glycemia ~3.9-7.1 mM.
  EXPECT_NEAR(g.physiological_low.milli_molar(), 3.9, 0.5);
  EXPECT_NEAR(g.physiological_high.milli_molar(), 7.1, 0.5);
}

TEST(Species, UnknownLookups) {
  EXPECT_FALSE(find_species("unobtainium").has_value());
  const auto unknown = try_species("unobtainium");
  ASSERT_FALSE(unknown.has_value());
  EXPECT_EQ(unknown.error().code, ErrorCode::kSpec);
}

TEST(Species, KindNames) {
  EXPECT_EQ(to_string(SpeciesKind::kMetabolite), "metabolite");
  EXPECT_EQ(to_string(SpeciesKind::kDrug), "drug");
  EXPECT_EQ(to_string(SpeciesKind::kInterferent), "interferent");
  EXPECT_EQ(to_string(SpeciesKind::kFattyAcid), "fatty acid");
  EXPECT_EQ(to_string(SpeciesKind::kMediator), "mediator");
}

}  // namespace
}  // namespace biosens::chem
