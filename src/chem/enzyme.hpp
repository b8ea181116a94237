// Enzyme probes: the biological sensing elements of the platform.
//
// Section 3 of the paper uses two enzyme families:
//  - oxidases (glucose oxidase, lactate oxidase, glutamate oxidase), whose
//    catalytic cycle produces H2O2 that is oxidized at +650 mV
//    (chronoamperometric detection), and
//  - cytochrome P450 isoforms (custom CYP102A1, CYP1A2, CYP2B6, CYP3A4),
//    whose heme center exchanges electrons directly with the MWCNT-
//    modified electrode during a potential sweep (voltammetric detection).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "chem/environment.hpp"
#include "common/expected.hpp"
#include "common/units.hpp"

namespace biosens::chem {

/// Enzyme family — drives the admissible transduction technique.
enum class EnzymeFamily {
  kOxidase,         ///< FAD-dependent oxidase producing H2O2
  kCytochromeP450,  ///< heme monooxygenase with direct electron transfer
};

/// Michaelis-Menten parameters of an enzyme for one substrate, in free
/// solution. Immobilization modifies these (see electrode::Immobilization).
struct SubstrateKinetics {
  std::string substrate;  ///< species name (see chem::species_registry)
  Rate k_cat;             ///< turnover number [1/s]
  Concentration k_m;      ///< Michaelis constant
  int electrons = 2;      ///< electrons transferred per turnover at the
                          ///< electrode (2 for H2O2 oxidation; 1-2 for CYP)
};

/// Immutable description of an enzyme probe.
struct Enzyme {
  std::string name;         ///< e.g. "glucose oxidase", "CYP2B6"
  std::string abbreviation; ///< e.g. "GOD"
  EnzymeFamily family = EnzymeFamily::kOxidase;
  double molar_mass_kda = 0.0;
  /// Formal potential of the catalytic redox couple vs Ag/AgCl; the CV
  /// peak for CYP-based sensing appears near this potential.
  Potential formal_potential;
  /// Footprint diameter of the adsorbed protein [nm]; bounds the
  /// achievable monolayer surface coverage.
  double footprint_nm = 6.0;
  /// O2 / pH / temperature response (see chem/environment.hpp).
  EnvironmentSensitivity environment;
  std::vector<SubstrateKinetics> substrates;

  /// Kinetics entry for the given substrate, if this enzyme turns it over.
  [[nodiscard]] std::optional<SubstrateKinetics> kinetics_for(
      std::string_view substrate) const;

  /// Close-packed monolayer coverage implied by the protein footprint:
  /// Gamma_max = 1 / (N_A * footprint_area).
  [[nodiscard]] SurfaceCoverage monolayer_coverage() const;
};

/// Built-in enzyme catalog (the four probes of Table 1 plus isoform
/// variants). Stable order and contents.
[[nodiscard]] std::span<const Enzyme> enzyme_catalog();

/// Looks up an enzyme by name or abbreviation.
[[nodiscard]] std::optional<Enzyme> find_enzyme(std::string_view name);

/// Looks up an enzyme by name or abbreviation; a chem-layer spec error
/// when absent.
[[nodiscard]] Expected<const Enzyme*> try_enzyme(std::string_view name);

/// Human-readable family name.
[[nodiscard]] std::string_view to_string(EnzymeFamily family);

}  // namespace biosens::chem
