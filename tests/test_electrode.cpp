// Electrode stack: geometries, modifications, immobilization, and the
// effective-layer synthesis.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "chem/enzyme.hpp"
#include "common/expected.hpp"
#include "electrode/assembly.hpp"
#include "electrode/geometry.hpp"
#include "electrode/immobilization.hpp"
#include "electrode/modification.hpp"

namespace biosens::electrode {
namespace {

Assembly paper_oxidase_assembly() {
  Assembly a;
  a.geometry = microfabricated_gold();
  a.modification = mwcnt_nafion();
  a.immobilization =
      try_immobilization_defaults(ImmobilizationMethod::kAdsorption).value();
  a.enzyme = *chem::try_enzyme("GOD").value();
  a.substrate = "glucose";
  a.loading_monolayers = 0.5;
  return a;
}

TEST(Geometry, PaperElectrodeAreas) {
  EXPECT_NEAR(screen_printed_electrode().working_area.square_millimeters(),
              13.0, 1e-12);
  EXPECT_NEAR(microfabricated_gold().working_area.square_millimeters(),
              0.25, 1e-12);
}

TEST(Geometry, MiniaturizationShrinksSampleNeed) {
  // Section 1: "system miniaturization ... requires small samples".
  EXPECT_LT(microfabricated_gold().min_sample_volume.microliters(),
            screen_printed_electrode().min_sample_volume.microliters());
}

TEST(Geometry, DoubleLayerScalesWithArea) {
  const Geometry spe = screen_printed_electrode();
  EXPECT_NEAR(spe.double_layer_capacitance().micro_farads(),
              spe.capacitance_per_cm2.micro_farads() * 0.13, 1e-9);
}

TEST(Geometry, CatalogAndReferenceOffsets) {
  EXPECT_EQ(geometry_catalog().size(), 4u);
  EXPECT_DOUBLE_EQ(reference_offset(ReferenceType::kAgAgCl).volts(), 0.0);
  EXPECT_NE(reference_offset(ReferenceType::kPtPseudo).volts(), 0.0);
}

TEST(Modification, CatalogEntriesAreValid) {
  for (const Modification& m : modification_catalog()) {
    EXPECT_NO_THROW(m.try_validate().value()) << m.name;
  }
  EXPECT_EQ(modification_catalog().size(), 13u);
}

TEST(Modification, CntWiresMoreEnzymeThanBare) {
  // The paper's core claim: CNT films both enlarge the surface and wire
  // the enzyme to the electrode.
  const Modification bare = bare_surface();
  const Modification cnt = mwcnt_nafion();
  EXPECT_GT(cnt.area_enhancement, 5.0 * bare.area_enhancement);
  EXPECT_GT(cnt.transfer_efficiency, 10.0 * bare.transfer_efficiency);
  EXPECT_GT(cnt.electron_transfer_rate.per_second(),
            10.0 * bare.electron_transfer_rate.per_second());
}

TEST(Modification, NafionFilmsRejectInterferents) {
  EXPECT_LT(mwcnt_nafion().interferent_transmission, 0.2);
  EXPECT_LT(nafion_film().interferent_transmission, 0.1);
  EXPECT_DOUBLE_EQ(bare_surface().interferent_transmission, 1.0);
}

TEST(Modification, FindByName) {
  EXPECT_TRUE(find_modification("MWCNT/Nafion").has_value());
  EXPECT_FALSE(find_modification("graphene aerogel").has_value());
}

TEST(Modification, ValidationRejectsOutOfRange) {
  std::vector<Modification> bad(3, mwcnt_nafion());
  bad[0].area_enhancement = 0.5;
  bad[1].transfer_efficiency = 1.5;
  bad[2].interferent_transmission = -0.1;
  for (const Modification& m : bad) {
    const auto v = m.try_validate();
    ASSERT_FALSE(v.has_value());
    EXPECT_EQ(v.error().code, ErrorCode::kSpec);
  }
}

TEST(Immobilization, DefaultsAreValidAndDistinct) {
  const auto ads =
      try_immobilization_defaults(ImmobilizationMethod::kAdsorption).value();
  const auto cov =
      try_immobilization_defaults(ImmobilizationMethod::kCovalent).value();
  const auto ent =
      try_immobilization_defaults(ImmobilizationMethod::kEntrapment).value();
  ads.try_validate().value();
  cov.try_validate().value();
  ent.try_validate().value();
  // Adsorption is gentle; covalent sacrifices activity for stability.
  EXPECT_GT(ads.activity_retention, cov.activity_retention);
  EXPECT_LT(cov.decay.per_second(), ads.decay.per_second());
  // Entrapment holds the most enzyme.
  EXPECT_GT(ent.max_monolayers, ads.max_monolayers);
}

TEST(Immobilization, ActivityDecaysExponentially) {
  const auto imm =
      try_immobilization_defaults(ImmobilizationMethod::kAdsorption).value();
  EXPECT_DOUBLE_EQ(remaining_activity(imm, Time::seconds(0.0)), 1.0);
  const double one_day = remaining_activity(imm, Time::seconds(86400.0));
  const double two_days = remaining_activity(imm, Time::seconds(172800.0));
  EXPECT_LT(one_day, 1.0);
  EXPECT_NEAR(two_days, one_day * one_day, 1e-12);
}

TEST(Assembly, SynthesisBasics) {
  const Assembly a = paper_oxidase_assembly();
  const EffectiveLayer layer = try_synthesize(a).value();
  EXPECT_EQ(layer.substrate, "glucose");
  EXPECT_EQ(layer.electrons, 2);
  EXPECT_GT(layer.wired_coverage.mol_per_m2(), 0.0);
  EXPECT_DOUBLE_EQ(layer.geometric_area.square_millimeters(), 0.25);
  // Apparent K_M folds in the modification multiplier.
  EXPECT_NEAR(layer.k_m_app.milli_molar(),
              22.0 * a.modification.km_multiplier, 1e-9);
}

TEST(Assembly, CoverageScalesLinearlyWithLoading) {
  Assembly a = paper_oxidase_assembly();
  a.loading_monolayers = 0.5;
  const double g1 = try_synthesize(a).value().wired_coverage.mol_per_m2();
  a.loading_monolayers = 1.0;
  const double g2 = try_synthesize(a).value().wired_coverage.mol_per_m2();
  EXPECT_NEAR(g2 / g1, 2.0, 1e-12);
}

TEST(Assembly, CntModificationBoostsCoverage) {
  Assembly a = paper_oxidase_assembly();
  const double with_cnt = try_synthesize(a).value().wired_coverage.mol_per_m2();
  a.modification = bare_surface();
  const double bare = try_synthesize(a).value().wired_coverage.mol_per_m2();
  EXPECT_GT(with_cnt / bare, 100.0);  // the ablation A1 story
}

TEST(Assembly, AgingReducesCoverage) {
  const Assembly a = paper_oxidase_assembly();
  const double fresh = try_synthesize(a).value().wired_coverage.mol_per_m2();
  const double aged = try_synthesize(a, Time::seconds(30.0 * 86400.0))
                           .value()
                           .wired_coverage.mol_per_m2();
  EXPECT_LT(aged, fresh);
  EXPECT_GT(aged, 0.0);
}

TEST(Assembly, CatalyticCurrentFollowsMichaelisMenten) {
  const EffectiveLayer layer = try_synthesize(paper_oxidase_assembly()).value();
  const chem::MichaelisMenten kin = layer.try_kinetics().value();
  const Current at_km = layer.catalytic_current(kin, layer.k_m_app);
  const Current saturated =
      layer.catalytic_current(kin, Concentration::molar(10.0));
  EXPECT_NEAR(saturated.amps() / at_km.amps(), 2.0, 0.01);
}

TEST(Assembly, IntrinsicSensitivityMatchesDefinition) {
  const EffectiveLayer layer = try_synthesize(paper_oxidase_assembly()).value();
  const double expected = layer.electrons * 96485.33212 *
                          layer.wired_coverage.mol_per_m2() *
                          layer.k_cat_app.per_second() /
                          layer.k_m_app.milli_molar();
  EXPECT_NEAR(layer.intrinsic_sensitivity().raw(), expected,
              1e-9 * expected);
}

TEST(Assembly, ValidationCatchesBadCompositions) {
  std::vector<Assembly> bad(4, paper_oxidase_assembly());
  bad[0].substrate = "lactate";      // GOD cannot turn over lactate
  bad[1].loading_monolayers = 100.0;  // beyond what adsorption supports
  bad[2].loading_monolayers = 0.0;
  bad[3].km_tuning = -1.0;
  for (const Assembly& a : bad) {
    const auto v = a.try_validate();
    ASSERT_FALSE(v.has_value());
    EXPECT_EQ(v.error().code, ErrorCode::kSpec);
  }
}

}  // namespace
}  // namespace biosens::electrode
