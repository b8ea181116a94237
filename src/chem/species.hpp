// Chemical species: the analytes the platform detects plus the common
// electroactive interferents present in physiological fluids.
//
// The paper's platform targets three metabolites (glucose, lactate,
// glutamate — Section 3.2.1-3.2.3), one fatty acid (arachidonic acid) and
// three anticancer/prodrug compounds (cyclophosphamide, ifosfamide,
// Ftorafur — Section 3.2.4).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/expected.hpp"
#include "common/units.hpp"

namespace biosens::chem {

/// Coarse role of a species in a measurement.
enum class SpeciesKind {
  kMetabolite,   ///< endogenous compound (glucose, lactate, glutamate)
  kFattyAcid,    ///< arachidonic acid
  kDrug,         ///< exogenous therapeutic compound
  kInterferent,  ///< electroactive contaminant (ascorbate, urate, ...)
  kMediator,     ///< redox shuttle (H2O2, oxygen)
};

/// Immutable description of a chemical species.
struct Species {
  std::string name;
  SpeciesKind kind = SpeciesKind::kMetabolite;
  double molar_mass_g_per_mol = 0.0;
  /// Diffusion coefficient in aqueous buffer at 25 degC.
  Diffusivity diffusivity = Diffusivity::cm2_per_s(6.0e-6);
  /// Typical physiological concentration window (blood/serum unless the
  /// species is a drug, in which case it is the therapeutic window).
  Concentration physiological_low;
  Concentration physiological_high;
};

/// Returns the built-in species registry (stable order, stable contents).
[[nodiscard]] std::span<const Species> species_registry();

/// Looks up a species by case-sensitive name.
[[nodiscard]] std::optional<Species> find_species(std::string_view name);

/// Looks up a species by name; a chem-layer spec error when absent.
[[nodiscard]] Expected<const Species*> try_species(std::string_view name);

/// Human-readable kind name ("metabolite", "drug", ...).
[[nodiscard]] std::string_view to_string(SpeciesKind kind);

}  // namespace biosens::chem
