#include "core/catalog.hpp"

#include "common/error.hpp"
#include "fet/design.hpp"

namespace biosens::core {
namespace {

using electrode::Geometry;
using electrode::ImmobilizationMethod;
using electrode::Modification;

PublishedFigures figures(double sens_ua_mm_cm2, double lo_mm, double hi_mm,
                         std::optional<double> lod_um) {
  PublishedFigures f;
  f.sensitivity = Sensitivity::micro_amp_per_milli_molar_cm2(sens_ua_mm_cm2);
  f.range_low = Concentration::milli_molar(lo_mm);
  f.range_high = Concentration::milli_molar(hi_mm);
  if (lod_um.has_value()) f.lod = Concentration::micro_molar(*lod_um);
  return f;
}

/// Builds one calibrated catalog entry.
CatalogEntry make_entry(std::string name, std::string citation,
                        std::string target, std::string_view enzyme,
                        Technique technique, Geometry geometry,
                        Modification modification,
                        ImmobilizationMethod immobilization,
                        PublishedFigures published, bool is_platform) {
  SensorSpec spec;
  spec.name = std::move(name);
  spec.citation = std::move(citation);
  spec.target = target;
  spec.technique = technique;
  spec.assembly.geometry = std::move(geometry);
  spec.assembly.modification = std::move(modification);
  spec.assembly.immobilization =
      electrode::try_immobilization_defaults(immobilization).value();
  spec.assembly.enzyme = *chem::try_enzyme(enzyme).value();
  spec.assembly.substrate = std::move(target);
  calibrate_to_figures(spec, published);
  spec.try_validate().value();
  return {std::move(spec), published, is_platform};
}

/// Macro-scale Au-film electrode used by the [55] comparator.
Geometry gold_film_macro() {
  Geometry g = electrode::glassy_carbon_disc();
  g.name = "Au film on grown MWCNT";
  g.working_material = electrode::Material::kGold;
  return g;
}

/// Builds one calibrated field-effect catalog entry: fet/design solves
/// the device's receptor density, K_d, and flicker floor so the standard
/// calibration protocol measures `published`.
CatalogEntry make_fet_entry(std::string name, std::string citation,
                            std::string target, fet::DeviceParams device,
                            PublishedFigures published) {
  fet::FigureTargets targets;
  targets.sensitivity = published.sensitivity;
  targets.range_low = published.range_low;
  targets.range_high = published.range_high;
  targets.lod = published.lod.value();  // FET rows always publish an LOD
  fet::calibrate_to_figures(device, target, targets);

  SensorSpec spec;
  spec.name = std::move(name);
  spec.citation = std::move(citation);
  spec.target = std::move(target);
  spec.technique = Technique::kFieldEffectTransfer;
  // The platform scheduler and sample-volume budget read these geometry
  // fields; everything physical lives in the device params.
  spec.assembly.geometry.name = spec.name;
  spec.assembly.geometry.working_area = device.channel_area;
  spec.assembly.geometry.min_sample_volume = Volume::microliters(10.0);
  spec.fet = std::move(device);
  spec.try_validate().value();
  return {std::move(spec), published, false};
}

}  // namespace

std::vector<CatalogEntry> glucose_entries() {
  // Inverse design is iterative; build each section once and hand out
  // copies.
  static const std::vector<CatalogEntry> kCached = [] {
  std::vector<CatalogEntry> out;
  out.push_back(make_entry(
      "CNT mat + GOD", "[42]", "glucose", "GOD",
      Technique::kChronoamperometry, electrode::glassy_carbon_disc(),
      electrode::cnt_mat(), ImmobilizationMethod::kCovalent,
      figures(4.05, 0.2, 2.18, std::nullopt), false));
  out.push_back(make_entry(
      "MWCNT/Nafion + GOD", "[49]", "glucose", "GOD",
      Technique::kChronoamperometry, electrode::glassy_carbon_disc(),
      electrode::mwcnt_nafion(), ImmobilizationMethod::kEntrapment,
      figures(4.7, 0.025, 2.0, 4.0), false));
  out.push_back(make_entry(
      "MWCNT + GOD", "[55]", "glucose", "GOD",
      Technique::kChronoamperometry, gold_film_macro(),
      electrode::mwcnt_gold_film(), ImmobilizationMethod::kAdsorption,
      figures(14.2, 0.05, 13.0, 10.0), false));
  out.push_back(make_entry(
      "MWCNT-BA + GOD", "[18]", "glucose", "GOD",
      Technique::kChronoamperometry, electrode::glassy_carbon_disc(),
      electrode::mwcnt_butyric_acid(), ImmobilizationMethod::kAdsorption,
      figures(23.5, 0.01, 2.5, 10.0), false));
  out.push_back(make_entry(
      "MWCNT/Nafion + GOD", "this work", "glucose", "GOD",
      Technique::kChronoamperometry, electrode::microfabricated_gold(),
      electrode::mwcnt_nafion(), ImmobilizationMethod::kAdsorption,
      figures(55.5, 0.0, 1.0, 2.0), true));
  return out;
  }();
  return kCached;
}

std::vector<CatalogEntry> lactate_entries() {
  // Inverse design is iterative; build each section once and hand out
  // copies.
  static const std::vector<CatalogEntry> kCached = [] {
  std::vector<CatalogEntry> out;
  out.push_back(make_entry(
      "MWCNT/mineral oil + LOD", "[41]", "lactate", "LOD",
      Technique::kChronoamperometry, electrode::glassy_carbon_disc(),
      electrode::mwcnt_mineral_oil(), ImmobilizationMethod::kEntrapment,
      figures(0.204, 0.0, 7.0, 300.0), false));
  out.push_back(make_entry(
      "Titanate NT + LOD", "[57]", "lactate", "LOD",
      Technique::kChronoamperometry, electrode::glassy_carbon_disc(),
      electrode::titanate_nanotube(), ImmobilizationMethod::kEntrapment,
      figures(0.24, 0.5, 14.0, 200.0), false));
  out.push_back(make_entry(
      "MWCNT + sol-gel/LOD", "[19]", "lactate", "LOD",
      Technique::kChronoamperometry, electrode::glassy_carbon_disc(),
      electrode::mwcnt_sol_gel(), ImmobilizationMethod::kEntrapment,
      figures(2.1, 0.3, 1.5, 0.3), false));
  out.push_back(make_entry(
      "N-doped CNT/Nafion + LOD", "[16]", "lactate", "LOD",
      Technique::kChronoamperometry, electrode::glassy_carbon_disc(),
      electrode::n_doped_cnt_nafion(), ImmobilizationMethod::kAdsorption,
      figures(40.0, 0.014, 0.325, 4.0), false));
  out.push_back(make_entry(
      "MWCNT/Nafion + LOD", "this work", "lactate", "LOD",
      Technique::kChronoamperometry, electrode::microfabricated_gold(),
      electrode::mwcnt_nafion(), ImmobilizationMethod::kAdsorption,
      figures(25.0, 0.0, 1.0, 11.0), true));
  return out;
  }();
  return kCached;
}

std::vector<CatalogEntry> glutamate_entries() {
  // Inverse design is iterative; build each section once and hand out
  // copies.
  static const std::vector<CatalogEntry> kCached = [] {
  std::vector<CatalogEntry> out;
  out.push_back(make_entry(
      "Nafion + GlOD", "[33]", "glutamate", "GlOD",
      Technique::kChronoamperometry, electrode::platinum_disc(),
      electrode::nafion_film(), ImmobilizationMethod::kEntrapment,
      figures(16.1, 0.001, 0.013, 0.3), false));
  out.push_back(make_entry(
      "Chit + GlOD", "[59]", "glutamate", "GlOD",
      Technique::kChronoamperometry, electrode::glassy_carbon_disc(),
      electrode::chitosan_film(), ImmobilizationMethod::kEntrapment,
      figures(85.0, 0.0, 0.2, 0.1), false));
  out.push_back(make_entry(
      "PU/MWCNT + GlOD/PP", "[1]", "glutamate", "GlOD",
      Technique::kChronoamperometry, electrode::platinum_disc(),
      electrode::pu_mwcnt_polypyrrole(), ImmobilizationMethod::kEntrapment,
      figures(384.0, 0.0, 0.14, 0.3), false));
  out.push_back(make_entry(
      "MWCNT/Nafion + GlOD", "this work", "glutamate", "GlOD",
      Technique::kChronoamperometry, electrode::microfabricated_gold(),
      electrode::mwcnt_nafion(), ImmobilizationMethod::kAdsorption,
      figures(0.9, 0.0, 2.0, 78.0), true));
  return out;
  }();
  return kCached;
}

std::vector<CatalogEntry> cyp_entries() {
  // Inverse design is iterative; build each section once and hand out
  // copies.
  static const std::vector<CatalogEntry> kCached = [] {
  std::vector<CatalogEntry> out;
  out.push_back(make_entry(
      "MWCNT + CYP (arachidonic acid)", "this work", "arachidonic acid",
      "custom-CYP", Technique::kCyclicVoltammetry,
      electrode::screen_printed_electrode(), electrode::mwcnt_chloroform(),
      ImmobilizationMethod::kAdsorption,
      figures(1140.0, 0.0, 0.04, 0.4), true));
  out.push_back(make_entry(
      "MWCNT + CYP (cyclophosphamide)", "this work", "cyclophosphamide",
      "CYP2B6", Technique::kCyclicVoltammetry,
      electrode::screen_printed_electrode(), electrode::mwcnt_chloroform(),
      ImmobilizationMethod::kAdsorption,
      figures(102.0, 0.0, 0.07, 2.0), true));
  out.push_back(make_entry(
      "MWCNT + CYP (ifosfamide)", "this work", "ifosfamide", "CYP3A4",
      Technique::kCyclicVoltammetry, electrode::screen_printed_electrode(),
      electrode::mwcnt_chloroform(), ImmobilizationMethod::kAdsorption,
      figures(160.0, 0.0, 0.14, 2.0), true));
  out.push_back(make_entry(
      "MWCNT + CYP (Ftorafur)", "this work", "ftorafur", "CYP1A2",
      Technique::kCyclicVoltammetry, electrode::screen_printed_electrode(),
      electrode::mwcnt_chloroform(), ImmobilizationMethod::kAdsorption,
      figures(883.0, 0.0, 0.008, 0.7), true));
  return out;
  }();
  return kCached;
}

std::vector<CatalogEntry> platform_entries() {
  std::vector<CatalogEntry> out;
  for (const auto& section :
       {glucose_entries(), lactate_entries(), glutamate_entries()}) {
    for (const CatalogEntry& e : section) {
      if (e.is_platform) out.push_back(e);
    }
  }
  for (CatalogEntry& e : cyp_entries()) out.push_back(std::move(e));
  return out;
}

std::vector<CatalogEntry> full_catalog() {
  std::vector<CatalogEntry> out;
  for (const auto& section : {glucose_entries(), lactate_entries(),
                               glutamate_entries(), cyp_entries()}) {
    for (const CatalogEntry& e : section) out.push_back(e);
  }
  return out;
}

std::vector<CatalogEntry> fet_entries() {
  // Inverse design is iterative; build the section once and hand out
  // copies.
  static const std::vector<CatalogEntry> kCached = [] {
    std::vector<CatalogEntry> out;
    out.push_back(make_fet_entry(
        "CNT-BA FET", "arXiv:1304.7253", "glucose",
        fet::cnt_boronic_acid_glucose(),
        figures(2.0e5, 0.5, 13.0, 300.0)));
    out.push_back(make_fet_entry(
        "Graphene-PBA FET", "arXiv:1808.05557", "glucose",
        fet::graphene_pba_glucose(), figures(8.0e4, 0.2, 8.0, 50.0)));
    return out;
  }();
  return kCached;
}

std::vector<CatalogEntry> extended_catalog() {
  std::vector<CatalogEntry> out = full_catalog();
  for (const CatalogEntry& e : fet_entries()) out.push_back(e);
  return out;
}

std::vector<CatalogEntry> extension_entries() {
  static const std::vector<CatalogEntry> kCached = [] {
  std::vector<CatalogEntry> out;
  out.push_back(make_entry(
      "MWCNT + CYP (benzphetamine)", "ext [9]", "benzphetamine", "CYP2B1",
      Technique::kCyclicVoltammetry, electrode::screen_printed_electrode(),
      electrode::mwcnt_chloroform(), ImmobilizationMethod::kAdsorption,
      figures(120.0, 0.0, 0.1, 2.0), false));
  out.push_back(make_entry(
      "MWCNT + CYP (dextromethorphan)", "ext [9]", "dextromethorphan",
      "CYP2D6", Technique::kCyclicVoltammetry,
      electrode::screen_printed_electrode(), electrode::mwcnt_chloroform(),
      ImmobilizationMethod::kAdsorption, figures(180.0, 0.0, 0.08, 1.5),
      false));
  out.push_back(make_entry(
      "MWCNT + CYP (naproxen)", "ext [9]", "naproxen", "CYP2C9",
      Technique::kCyclicVoltammetry, electrode::screen_printed_electrode(),
      electrode::mwcnt_chloroform(), ImmobilizationMethod::kAdsorption,
      figures(90.0, 0.0, 0.15, 3.0), false));
  out.push_back(make_entry(
      "MWCNT + CYP (flurbiprofen)", "ext [9]", "flurbiprofen", "CYP2C9",
      Technique::kCyclicVoltammetry, electrode::screen_printed_electrode(),
      electrode::mwcnt_chloroform(), ImmobilizationMethod::kAdsorption,
      figures(140.0, 0.0, 0.1, 2.0), false));
  return out;
  }();
  return kCached;
}

Expected<CatalogEntry> try_entry(std::string_view name) {
  // Two rows may share a label (the paper reuses "MWCNT/Nafion + GOD");
  // "name [citation]" and "name (this work)" disambiguate.
  std::vector<CatalogEntry> all = extended_catalog();
  for (CatalogEntry& e : extension_entries()) all.push_back(std::move(e));
  for (CatalogEntry& e : all) {
    const std::string qualified = e.spec.name + " " + e.spec.citation;
    const std::string tagged = e.spec.name + " (this work)";
    if (e.spec.name == name || qualified == name ||
        (e.is_platform && tagged == name)) {
      return std::move(e);
    }
  }
  return make_error(ErrorCode::kSpec, Layer::kCore, "catalog lookup",
                    "no catalog entry named '" + std::string(name) + "'");
}

}  // namespace biosens::core
