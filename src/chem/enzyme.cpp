#include "chem/enzyme.hpp"

#include <array>
#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace biosens::chem {

std::optional<SubstrateKinetics> Enzyme::kinetics_for(
    std::string_view substrate) const {
  for (const SubstrateKinetics& k : substrates) {
    if (k.substrate == substrate) return k;
  }
  return std::nullopt;
}

SurfaceCoverage Enzyme::monolayer_coverage() const {
  constexpr double kAvogadro = 6.02214076e23;
  const double radius_m = 0.5 * footprint_nm * 1e-9;
  const double area_m2 = std::numbers::pi * radius_m * radius_m;
  return SurfaceCoverage::mol_per_m2(1.0 / (kAvogadro * area_m2));
}

namespace {

// Solution-phase kinetic constants follow BRENDA-range literature values;
// they set the *scale* of the catalytic current, while the electrode-layer
// modifiers (immobilization retention, CNT wiring efficiency, diffusion
// barrier) set the device-to-device differences that Table 2 reports.
const std::vector<Enzyme>& catalog() {
  // Environmental coefficients: oxidases consume dissolved O2 as their
  // co-substrate (K_M,O2 ~ tens of uM); CYPs take their electrons from
  // the electrode in this configuration and are O2-independent here.
  const EnvironmentSensitivity oxidase_env{
      Concentration::micro_molar(30.0), 7.0, 1.6, 35.0};
  const EnvironmentSensitivity cyp_env{
      Concentration::micro_molar(0.0), 7.4, 1.2, 42.0};

  static const std::vector<Enzyme> kCatalog = {
      {"glucose oxidase",
       "GOD",
       EnzymeFamily::kOxidase,
       160.0,
       Potential::millivolts(-400.0),
       7.0,
       oxidase_env,
       {{"glucose", Rate::per_second(700.0), Concentration::milli_molar(22.0),
         2}}},
      {"lactate oxidase",
       "LOD",
       EnzymeFamily::kOxidase,
       80.0,
       Potential::millivolts(-380.0),
       6.0,
       oxidase_env,
       {{"lactate", Rate::per_second(120.0), Concentration::milli_molar(0.7),
         2}}},
      {"glutamate oxidase",
       "GlOD",
       EnzymeFamily::kOxidase,
       140.0,
       Potential::millivolts(-390.0),
       6.5,
       oxidase_env,
       {{"glutamate", Rate::per_second(60.0),
         Concentration::milli_molar(0.25), 2}}},
      // Custom isoform supplied by EMPA for fatty-acid detection.
      {"CYP102A1",
       "custom-CYP",
       EnzymeFamily::kCytochromeP450,
       119.0,
       Potential::millivolts(-120.0),
       6.0,
       cyp_env,
       {{"arachidonic acid", Rate::per_second(250.0),
         Concentration::micro_molar(120.0), 1}}},
      {"CYP1A2",
       "CYP1A2",
       EnzymeFamily::kCytochromeP450,
       58.0,
       Potential::millivolts(-105.0),
       5.5,
       cyp_env,
       {{"ftorafur", Rate::per_second(15.0), Concentration::micro_molar(40.0),
         1}}},
      {"CYP2B6",
       "CYP2B6",
       EnzymeFamily::kCytochromeP450,
       56.0,
       Potential::millivolts(-95.0),
       5.5,
       cyp_env,
       {{"cyclophosphamide", Rate::per_second(12.0),
         Concentration::micro_molar(400.0), 1},
        // Weak cross-reactivity toward the isomeric ifosfamide — the
        // reason multi-drug panels need deconvolution (see
        // core/deconvolution.hpp).
        {"ifosfamide", Rate::per_second(2.5),
         Concentration::micro_molar(900.0), 1}}},
      {"CYP3A4",
       "CYP3A4",
       EnzymeFamily::kCytochromeP450,
       57.0,
       Potential::millivolts(-110.0),
       5.5,
       cyp_env,
       {{"ifosfamide", Rate::per_second(25.0),
         Concentration::micro_molar(700.0), 1},
        {"cyclophosphamide", Rate::per_second(5.0),
         Concentration::micro_molar(1100.0), 1}}},
      // Isoforms of the multi-panel study [9]. Benzphetamine gets the
      // rat isoform CYP2B1 (the canonical benzphetamine N-demethylase of
      // the Carrara et al. panels) — on its own isoform the panel matrix
      // stays well conditioned; two sensors sharing one isoform cannot
      // be unmixed.
      {"CYP2B1",
       "CYP2B1",
       EnzymeFamily::kCytochromeP450,
       56.0,
       Potential::millivolts(-98.0),
       5.5,
       cyp_env,
       {{"benzphetamine", Rate::per_second(18.0),
         Concentration::micro_molar(220.0), 1}}},
      {"CYP2D6",
       "CYP2D6",
       EnzymeFamily::kCytochromeP450,
       56.0,
       Potential::millivolts(-100.0),
       5.5,
       cyp_env,
       {{"dextromethorphan", Rate::per_second(20.0),
         Concentration::micro_molar(200.0), 1}}},
      {"CYP2C9",
       "CYP2C9",
       EnzymeFamily::kCytochromeP450,
       55.0,
       Potential::millivolts(-90.0),
       5.5,
       cyp_env,
       // Both profens are CYP2C9 substrates — a cross-reactive pair
       // that panel deconvolution must untangle.
       {{"naproxen", Rate::per_second(15.0),
         Concentration::micro_molar(300.0), 1},
        {"flurbiprofen", Rate::per_second(20.0),
         Concentration::micro_molar(150.0), 1}}},
  };
  return kCatalog;
}

}  // namespace

std::span<const Enzyme> enzyme_catalog() { return catalog(); }

std::optional<Enzyme> find_enzyme(std::string_view name) {
  for (const Enzyme& e : catalog()) {
    if (e.name == name || e.abbreviation == name) return e;
  }
  return std::nullopt;
}

Expected<const Enzyme*> try_enzyme(std::string_view name) {
  for (const Enzyme& e : catalog()) {
    if (e.name == name || e.abbreviation == name) return &e;
  }
  return make_error(ErrorCode::kSpec, Layer::kChem, "enzyme lookup",
                    "unknown enzyme: " + std::string(name));
}

std::string_view to_string(EnzymeFamily family) {
  switch (family) {
    case EnzymeFamily::kOxidase:
      return "oxidase";
    case EnzymeFamily::kCytochromeP450:
      return "cytochrome P450";
  }
  return "unknown";
}

}  // namespace biosens::chem
