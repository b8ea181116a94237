// Enzyme immobilization methods.
//
// How the enzyme is fixed to the (modified) surface determines how much
// catalytic activity survives and how fast the layer degrades — the
// difference between a disposable strip and an implantable monitor
// (Section 2.5 of the paper).
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "common/expected.hpp"
#include "common/units.hpp"

namespace biosens::electrode {

/// Immobilization strategy.
enum class ImmobilizationMethod {
  kAdsorption,       ///< physisorption on CNT walls (the platform's method)
  kCovalent,         ///< covalent coupling (e.g. EDC/NHS to COOH groups)
  kEntrapment,       ///< entrapment in a polymer/sol-gel matrix
  kCrossLinking,     ///< glutaraldehyde cross-linking
};

/// Quantitative descriptor of an immobilization method.
struct Immobilization {
  ImmobilizationMethod method = ImmobilizationMethod::kAdsorption;
  /// Fraction of solution-phase activity retained after immobilization.
  double activity_retention = 0.8;
  /// Maximum enzyme loading in equivalent monolayers the method supports.
  double max_monolayers = 2.0;
  /// First-order activity decay rate (storage/operational stability).
  /// The drift model multiplies activity by exp(-rate * t).
  Rate decay = Rate::per_second(1e-7);

  /// Validates ranges; an electrode-layer spec error when out of
  /// physical bounds.
  [[nodiscard]] Expected<void> try_validate() const;
};

/// Default descriptor for each method; an electrode-layer spec error for
/// an out-of-range method value.
[[nodiscard]] Expected<Immobilization> try_immobilization_defaults(
    ImmobilizationMethod method);

/// Remaining activity fraction after elapsed time (exp(-decay * t)).
[[nodiscard]] double remaining_activity(const Immobilization& imm,
                                        Time elapsed);

[[nodiscard]] std::string_view to_string(ImmobilizationMethod m);

}  // namespace biosens::electrode
