// The headline integration test: every Table 2 row, measured end-to-end
// through simulation + readout + calibration, must land on the published
// figures — and the paper's comparative claims must hold.
#include <gtest/gtest.h>

#include <map>
#include <vector>
#include <string>

#include "common/stats.hpp"
#include "core/catalog.hpp"
#include "core/protocol.hpp"

namespace biosens::core {
namespace {

struct Measured {
  double sens_ua = 0.0;
  double range_hi_mm = 0.0;
  double lod_um = 0.0;
};

// Measures every catalog entry (shared across tests in this binary).
// Each figure is the median of three independent calibration runs — the
// per-run scatter of the noisiest devices (LOD within ~10% of the range)
// is real, and a lab would replicate the calibration the same way.
const std::map<std::string, std::pair<Measured, CatalogEntry>>&
measured_catalog() {
  static const auto* kResults = [] {
    auto* out =
        new std::map<std::string, std::pair<Measured, CatalogEntry>>();
    const CalibrationProtocol protocol;
    for (const CatalogEntry& e : full_catalog()) {
      const BiosensorModel sensor(e.spec);
      const auto series = standard_series(e.published.range_low,
                                          e.published.range_high);
      std::vector<double> sens, range, lod;
      for (std::uint64_t seed : {11u, 22u, 33u}) {
        Rng rng(seed);
        const auto outcome = protocol.try_run(sensor, series, rng).value();
        sens.push_back(
            outcome.result.sensitivity.micro_amp_per_milli_molar_cm2());
        range.push_back(outcome.result.linear_range_high.milli_molar());
        lod.push_back(outcome.result.lod.micro_molar());
      }
      Measured m;
      m.sens_ua = median(sens);
      m.range_hi_mm = median(range);
      m.lod_um = median(lod);
      out->emplace(e.spec.name + " " + e.spec.citation,
                   std::make_pair(m, e));
    }
    return out;
  }();
  return *kResults;
}

TEST(Catalog, HasAllEighteenTable2Rows) {
  EXPECT_EQ(full_catalog().size(), 18u);
  EXPECT_EQ(glucose_entries().size(), 5u);
  EXPECT_EQ(lactate_entries().size(), 5u);
  EXPECT_EQ(glutamate_entries().size(), 4u);
  EXPECT_EQ(cyp_entries().size(), 4u);
  EXPECT_EQ(platform_entries().size(), 7u);  // Table 1
}

TEST(Catalog, EveryRowReproducesPublishedSensitivity) {
  for (const auto& [name, pair] : measured_catalog()) {
    const auto& [m, e] = pair;
    const double published =
        e.published.sensitivity.micro_amp_per_milli_molar_cm2();
    EXPECT_NEAR(m.sens_ua, published, 0.10 * published) << name;
  }
}

TEST(Catalog, EveryRowReproducesPublishedLinearRange) {
  for (const auto& [name, pair] : measured_catalog()) {
    const auto& [m, e] = pair;
    const double published = e.published.range_high.milli_molar();
    EXPECT_NEAR(m.range_hi_mm, published, 0.30 * published) << name;
  }
}

TEST(Catalog, EveryRowReproducesPublishedLod) {
  for (const auto& [name, pair] : measured_catalog()) {
    const auto& [m, e] = pair;
    if (!e.published.lod.has_value()) continue;  // "-" row of [42]
    const double published = e.published.lod->micro_molar();
    EXPECT_GT(m.lod_um, 0.4 * published) << name;
    EXPECT_LT(m.lod_um, 2.0 * published) << name;
  }
}

double measured_sens(const std::string& key) {
  return measured_catalog().at(key).first.sens_ua;
}
double measured_lod(const std::string& key) {
  return measured_catalog().at(key).first.lod_um;
}
double measured_range(const std::string& key) {
  return measured_catalog().at(key).first.range_hi_mm;
}

TEST(Catalog, GlucoseClaimOursBestSensitivityAndLod) {
  // Section 3.2.1: "our biosensor shows the best performance for both
  // sensitivity and limit of detection".
  const double ours = measured_sens("MWCNT/Nafion + GOD this work");
  for (const char* other :
       {"CNT mat + GOD [42]", "MWCNT/Nafion + GOD [49]", "MWCNT + GOD [55]",
        "MWCNT-BA + GOD [18]"}) {
    EXPECT_GT(ours, measured_sens(other)) << other;
  }
  const double our_lod = measured_lod("MWCNT/Nafion + GOD this work");
  for (const char* other :
       {"MWCNT/Nafion + GOD [49]", "MWCNT + GOD [55]",
        "MWCNT-BA + GOD [18]"}) {
    EXPECT_LT(our_lod, measured_lod(other)) << other;
  }
}

TEST(Catalog, LactateClaimNDopedWinsButNarrowRange) {
  // Section 3.2.2: [16] beats our sensitivity, but its range is too
  // narrow for physiological lactate; ours covers 0-1 mM.
  EXPECT_GT(measured_sens("N-doped CNT/Nafion + LOD [16]"),
            measured_sens("MWCNT/Nafion + LOD this work"));
  EXPECT_LT(measured_range("N-doped CNT/Nafion + LOD [16]"), 0.5);
  EXPECT_GE(measured_range("MWCNT/Nafion + LOD this work"), 0.9);
  // And the paste electrode [41] is two orders of magnitude less
  // sensitive than ours.
  EXPECT_GT(measured_sens("MWCNT/Nafion + LOD this work"),
            50.0 * measured_sens("MWCNT/mineral oil + LOD [41]"));
}

TEST(Catalog, GlutamateClaimOthersMoreSensitiveButOursWidest) {
  // Section 3.2.3: literature sensitivities are up to three orders of
  // magnitude higher; we exploit the widest linear range.
  const double ours_sens = measured_sens("MWCNT/Nafion + GlOD this work");
  EXPECT_GT(measured_sens("PU/MWCNT + GlOD/PP [1]"), 100.0 * ours_sens);
  const double ours_range =
      measured_range("MWCNT/Nafion + GlOD this work");
  for (const char* other : {"Nafion + GlOD [33]", "Chit + GlOD [59]",
                            "PU/MWCNT + GlOD/PP [1]"}) {
    EXPECT_GT(ours_range, measured_range(other)) << other;
  }
}

TEST(Catalog, CypClaimSubMicromolarToFewMicromolarLods) {
  // Section 3.2.4: all four CYP sensors reach LODs of 0.4-2 uM —
  // inside the therapeutic windows of the drugs.
  for (const char* name :
       {"MWCNT + CYP (arachidonic acid) this work",
        "MWCNT + CYP (cyclophosphamide) this work",
        "MWCNT + CYP (ifosfamide) this work",
        "MWCNT + CYP (Ftorafur) this work"}) {
    EXPECT_LT(measured_lod(name), 4.0) << name;
    EXPECT_GT(measured_lod(name), 0.1) << name;
  }
  // Arachidonic acid is the most sensitive CYP assay, CP the least.
  EXPECT_GT(measured_sens("MWCNT + CYP (arachidonic acid) this work"),
            measured_sens("MWCNT + CYP (Ftorafur) this work"));
  EXPECT_GT(measured_sens("MWCNT + CYP (Ftorafur) this work"),
            measured_sens("MWCNT + CYP (ifosfamide) this work"));
  EXPECT_GT(measured_sens("MWCNT + CYP (ifosfamide) this work"),
            measured_sens("MWCNT + CYP (cyclophosphamide) this work"));
}

TEST(Catalog, ExtendedTableFetRowsReproducePublishedFigures) {
  // The extended Table 2 appends the two field-effect devices to the
  // paper's own rows, and the SAME CalibrationProtocol that measured
  // every amperometric row above measures them — no FET-specific
  // branch anywhere in the protocol (docs/transducers.md).
  const std::vector<CatalogEntry> extended = extended_catalog();
  ASSERT_EQ(extended.size(), full_catalog().size() + 2);
  const CalibrationProtocol protocol;
  std::size_t fet_rows = 0;
  for (const CatalogEntry& e : extended) {
    if (e.spec.technique != Technique::kFieldEffectTransfer) continue;
    ++fet_rows;
    const BiosensorModel sensor(e.spec);
    const auto series = standard_series(e.published.range_low,
                                        e.published.range_high);
    std::vector<double> sens, lod;
    for (std::uint64_t seed : {11u, 22u, 33u}) {
      Rng rng(seed);
      const auto outcome = protocol.try_run(sensor, series, rng).value();
      sens.push_back(
          outcome.result.sensitivity.micro_amp_per_milli_molar_cm2());
      lod.push_back(outcome.result.lod.micro_molar());
    }
    const double pub_sens =
        e.published.sensitivity.micro_amp_per_milli_molar_cm2();
    EXPECT_NEAR(median(sens), pub_sens, 0.25 * pub_sens) << e.spec.name;
    ASSERT_TRUE(e.published.lod.has_value()) << e.spec.name;
    const double pub_lod = e.published.lod->micro_molar();
    EXPECT_GT(median(lod), 0.2 * pub_lod) << e.spec.name;
    EXPECT_LT(median(lod), 2.5 * pub_lod) << e.spec.name;
  }
  EXPECT_EQ(fet_rows, 2u);
}

TEST(Catalog, PlatformEntriesAreFlaggedAndCited) {
  for (const CatalogEntry& e : platform_entries()) {
    EXPECT_TRUE(e.is_platform) << e.spec.name;
    EXPECT_EQ(e.spec.citation, "this work") << e.spec.name;
  }
}

TEST(Catalog, PlatformUsesThePaperHardware) {
  // Oxidase sensors live on the microfabricated chip; CYP sensors on
  // screen-printed electrodes (Section 3.1).
  for (const CatalogEntry& e : platform_entries()) {
    if (e.spec.assembly.enzyme.family == chem::EnzymeFamily::kOxidase) {
      EXPECT_EQ(e.spec.assembly.geometry.working_area.square_millimeters(),
                0.25)
          << e.spec.name;
      EXPECT_EQ(e.spec.assembly.modification.name, "MWCNT/Nafion");
    } else {
      EXPECT_EQ(e.spec.assembly.geometry.working_area.square_millimeters(),
                13.0)
          << e.spec.name;
      EXPECT_EQ(e.spec.assembly.modification.name, "MWCNT/chloroform");
    }
  }
}

TEST(Catalog, LookupByQualifiedName) {
  for (const char* name : {"MWCNT/Nafion + GOD (this work)",
                           "MWCNT/Nafion + GOD [49]", "CNT mat + GOD"}) {
    EXPECT_TRUE(try_entry(name).has_value()) << name;
  }
  const auto missing = try_entry("nonexistent device");
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().code, ErrorCode::kSpec);
}

}  // namespace
}  // namespace biosens::core
