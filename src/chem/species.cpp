#include "chem/species.hpp"

#include <array>

#include "common/error.hpp"

namespace biosens::chem {
namespace {

// Diffusivities are literature values for dilute aqueous solution at
// 25 degC; physiological windows follow standard clinical reference
// ranges (metabolites) or reported plasma levels during therapy (drugs).
const std::array<Species, 16>& registry() {
  static const std::array<Species, 16> kSpecies = {{
      {"glucose", SpeciesKind::kMetabolite, 180.16,
       Diffusivity::cm2_per_s(6.7e-6), Concentration::milli_molar(3.9),
       Concentration::milli_molar(7.1)},
      {"lactate", SpeciesKind::kMetabolite, 90.08,
       Diffusivity::cm2_per_s(1.0e-5), Concentration::milli_molar(0.5),
       Concentration::milli_molar(2.2)},
      {"glutamate", SpeciesKind::kMetabolite, 147.13,
       Diffusivity::cm2_per_s(7.6e-6), Concentration::micro_molar(20.0),
       Concentration::micro_molar(200.0)},
      {"arachidonic acid", SpeciesKind::kFattyAcid, 304.47,
       Diffusivity::cm2_per_s(4.0e-6), Concentration::micro_molar(1.0),
       Concentration::micro_molar(40.0)},
      {"cyclophosphamide", SpeciesKind::kDrug, 261.08,
       Diffusivity::cm2_per_s(5.5e-6), Concentration::micro_molar(4.0),
       Concentration::micro_molar(70.0)},
      {"ifosfamide", SpeciesKind::kDrug, 261.08,
       Diffusivity::cm2_per_s(5.5e-6), Concentration::micro_molar(10.0),
       Concentration::micro_molar(140.0)},
      {"ftorafur", SpeciesKind::kDrug, 200.17,
       Diffusivity::cm2_per_s(6.0e-6), Concentration::micro_molar(1.0),
       Concentration::micro_molar(8.0)},
      // The remaining drugs of the multi-panel work [9].
      {"benzphetamine", SpeciesKind::kDrug, 239.36,
       Diffusivity::cm2_per_s(5.0e-6), Concentration::micro_molar(2.0),
       Concentration::micro_molar(100.0)},
      {"dextromethorphan", SpeciesKind::kDrug, 271.40,
       Diffusivity::cm2_per_s(4.8e-6), Concentration::micro_molar(1.0),
       Concentration::micro_molar(80.0)},
      {"naproxen", SpeciesKind::kDrug, 230.26,
       Diffusivity::cm2_per_s(5.5e-6), Concentration::micro_molar(10.0),
       Concentration::micro_molar(150.0)},
      {"flurbiprofen", SpeciesKind::kDrug, 244.26,
       Diffusivity::cm2_per_s(5.2e-6), Concentration::micro_molar(5.0),
       Concentration::micro_molar(100.0)},
      // Electroactive interferents relevant at +650 mV vs Ag/AgCl.
      {"ascorbic acid", SpeciesKind::kInterferent, 176.12,
       Diffusivity::cm2_per_s(6.4e-6), Concentration::micro_molar(30.0),
       Concentration::micro_molar(90.0)},
      {"uric acid", SpeciesKind::kInterferent, 168.11,
       Diffusivity::cm2_per_s(7.0e-6), Concentration::micro_molar(150.0),
       Concentration::micro_molar(450.0)},
      {"paracetamol", SpeciesKind::kInterferent, 151.16,
       Diffusivity::cm2_per_s(6.5e-6), Concentration::micro_molar(60.0),
       Concentration::micro_molar(160.0)},
      // Redox mediators of the oxidase reaction chain.
      {"hydrogen peroxide", SpeciesKind::kMediator, 34.01,
       Diffusivity::cm2_per_s(1.4e-5), Concentration::milli_molar(0.0),
       Concentration::milli_molar(0.0)},
      {"oxygen", SpeciesKind::kMediator, 32.00,
       Diffusivity::cm2_per_s(2.1e-5), Concentration::micro_molar(200.0),
       Concentration::micro_molar(270.0)},
  }};
  return kSpecies;
}

}  // namespace

std::span<const Species> species_registry() { return registry(); }

std::optional<Species> find_species(std::string_view name) {
  for (const Species& s : registry()) {
    if (s.name == name) return s;
  }
  return std::nullopt;
}

Expected<const Species*> try_species(std::string_view name) {
  for (const Species& s : registry()) {
    if (s.name == name) return &s;
  }
  return make_error(ErrorCode::kSpec, Layer::kChem, "species lookup",
                    "unknown species: " + std::string(name));
}

std::string_view to_string(SpeciesKind kind) {
  switch (kind) {
    case SpeciesKind::kMetabolite:
      return "metabolite";
    case SpeciesKind::kFattyAcid:
      return "fatty acid";
    case SpeciesKind::kDrug:
      return "drug";
    case SpeciesKind::kInterferent:
      return "interferent";
    case SpeciesKind::kMediator:
      return "mediator";
  }
  return "unknown";
}

}  // namespace biosens::chem
