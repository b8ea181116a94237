// The [9]-width drug panel: extension devices calibrate to their design
// figures and the CYP2C9 profen pair deconvolves.
#include <gtest/gtest.h>

#include "core/catalog.hpp"
#include "core/deconvolution.hpp"
#include "core/protocol.hpp"

namespace biosens::core {
namespace {

TEST(ExtensionPanel, FourDevicesExist) {
  const auto entries = extension_entries();
  ASSERT_EQ(entries.size(), 4u);
  for (const CatalogEntry& e : entries) {
    EXPECT_EQ(e.spec.citation, "ext [9]");
    EXPECT_FALSE(e.is_platform);
    EXPECT_NO_THROW(e.spec.try_validate().value());
  }
}

TEST(ExtensionPanel, DevicesCalibrateToDesignFigures) {
  Rng rng(2013);
  const CalibrationProtocol protocol;
  for (const CatalogEntry& e : extension_entries()) {
    const BiosensorModel sensor(e.spec);
    const auto series = standard_series(e.published.range_low,
                                        e.published.range_high);
    const auto result = protocol.try_run(sensor, series, rng).value().result;
    const double target =
        e.published.sensitivity.micro_amp_per_milli_molar_cm2();
    EXPECT_NEAR(result.sensitivity.micro_amp_per_milli_molar_cm2(), target,
                0.12 * target)
        << e.spec.name;
    EXPECT_GT(result.lod.micro_molar(),
              0.3 * e.published.lod->micro_molar())
        << e.spec.name;
    EXPECT_LT(result.lod.micro_molar(),
              2.5 * e.published.lod->micro_molar())
        << e.spec.name;
  }
}

TEST(ExtensionPanel, ProfenPairSharesTheIsoform) {
  const CatalogEntry naproxen = try_entry("MWCNT + CYP (naproxen)").value();
  const CatalogEntry flurbi = try_entry("MWCNT + CYP (flurbiprofen)").value();
  EXPECT_EQ(naproxen.spec.assembly.enzyme.name, "CYP2C9");
  EXPECT_EQ(flurbi.spec.assembly.enzyme.name, "CYP2C9");
  // Each device lists the sibling profen as a cross activity.
  const auto naproxen_layer =
      electrode::try_synthesize(naproxen.spec.assembly).value();
  ASSERT_EQ(naproxen_layer.secondary.size(), 1u);
  EXPECT_EQ(naproxen_layer.secondary.front().substrate, "flurbiprofen");
}

TEST(ExtensionPanel, SameIsoformPairIsUnresolvable) {
  // Naproxen and flurbiprofen are both CYP2C9 substrates, so the two
  // devices' response rows are scalar multiples of each other: the
  // panel is *chemically* degenerate. The library must expose that (a
  // collinearity near 1) rather than return confidently wrong numbers —
  // the real fix is a different recognition element, not algebra.
  const BiosensorModel naproxen(
      try_entry("MWCNT + CYP (naproxen)").value().spec);
  const BiosensorModel flurbi(
      try_entry("MWCNT + CYP (flurbiprofen)").value().spec);
  const PanelModel model = characterize_panel(
      {&naproxen, &flurbi},
      {Concentration::micro_molar(80.0), Concentration::micro_molar(50.0)});

  EXPECT_GT(panel_collinearity(model), 0.99);

  // And the naive readings indeed over-report in a cocktail.
  chem::Sample cocktail = chem::blank_sample();
  cocktail.set("naproxen", Concentration::micro_molar(60.0));
  cocktail.set("flurbiprofen", Concentration::micro_molar(40.0));
  const std::vector<double> responses = {
      naproxen.ideal_response_a(cocktail),
      flurbi.ideal_response_a(cocktail)};
  const auto naive = naive_estimates(model, responses);
  EXPECT_GT(naive[0].micro_molar(), 66.0);
  EXPECT_GT(naive[1].micro_molar(), 44.0);
}

TEST(ExtensionPanel, FiveDrugPanelCharacterizes) {
  // The full [9] width: CP, ifosfamide, benzphetamine, dextromethorphan,
  // naproxen — a 5x5 cross-sensitivity system that stays solvable.
  const BiosensorModel cp(
      try_entry("MWCNT + CYP (cyclophosphamide)").value().spec);
  const BiosensorModel ifos(try_entry("MWCNT + CYP (ifosfamide)").value().spec);
  const BiosensorModel benz(
      try_entry("MWCNT + CYP (benzphetamine)").value().spec);
  const BiosensorModel dextro(
      try_entry("MWCNT + CYP (dextromethorphan)").value().spec);
  const BiosensorModel napro(try_entry("MWCNT + CYP (naproxen)").value().spec);

  const PanelModel model = characterize_panel(
      {&cp, &ifos, &benz, &dextro, &napro},
      {Concentration::micro_molar(40.0), Concentration::micro_molar(80.0),
       Concentration::micro_molar(60.0), Concentration::micro_molar(50.0),
       Concentration::micro_molar(80.0)});

  chem::Sample cocktail = chem::blank_sample();
  cocktail.set("cyclophosphamide", Concentration::micro_molar(25.0));
  cocktail.set("ifosfamide", Concentration::micro_molar(70.0));
  cocktail.set("benzphetamine", Concentration::micro_molar(40.0));
  cocktail.set("dextromethorphan", Concentration::micro_molar(30.0));
  cocktail.set("naproxen", Concentration::micro_molar(90.0));

  std::vector<double> responses;
  for (const BiosensorModel* s : {&cp, &ifos, &benz, &dextro, &napro}) {
    responses.push_back(s->ideal_response_a(cocktail));
  }
  const auto unmixed = deconvolve(model, responses);
  const double truth[] = {25.0, 70.0, 40.0, 30.0, 90.0};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(unmixed[i].micro_molar(), truth[i], 0.12 * truth[i] + 1.0)
        << model.targets[i];
  }
  // Distinct isoforms keep the panel well conditioned.
  EXPECT_LT(panel_collinearity(model), 0.95);
}

}  // namespace
}  // namespace biosens::core
