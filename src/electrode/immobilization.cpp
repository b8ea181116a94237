#include "electrode/immobilization.hpp"

#include <cmath>

#include "common/error.hpp"

namespace biosens::electrode {

Expected<void> Immobilization::try_validate() const {
  BIOSENS_EXPECT(activity_retention > 0.0 && activity_retention <= 1.0,
                 ErrorCode::kSpec, Layer::kElectrode, "immobilization",
                 "activity_retention must be in (0, 1]");
  BIOSENS_EXPECT(max_monolayers > 0.0, ErrorCode::kSpec, Layer::kElectrode,
                 "immobilization", "max_monolayers must be positive");
  BIOSENS_EXPECT(decay.per_second() >= 0.0, ErrorCode::kSpec,
                 Layer::kElectrode, "immobilization",
                 "decay rate must be non-negative");
  return ok();
}

Expected<Immobilization> try_immobilization_defaults(
    ImmobilizationMethod method) {
  switch (method) {
    case ImmobilizationMethod::kAdsorption:
      // Gentle, preserves conformation; limited to a few layers; the CNT
      // protein-adsorption route the platform uses [4].
      return Immobilization{method, 0.85, 3.0, Rate::per_second(2.0e-7)};
    case ImmobilizationMethod::kCovalent:
      // Strong bond, some active-site damage; very stable.
      return Immobilization{method, 0.55, 1.5, Rate::per_second(4.0e-8)};
    case ImmobilizationMethod::kEntrapment:
      // High loading inside the matrix, but much of it is diffusion-
      // shielded; moderately stable.
      return Immobilization{method, 0.65, 6.0, Rate::per_second(1.2e-7)};
    case ImmobilizationMethod::kCrossLinking:
      return Immobilization{method, 0.45, 4.0, Rate::per_second(8.0e-8)};
  }
  return make_error(ErrorCode::kSpec, Layer::kElectrode,
                    "immobilization defaults",
                    "unknown immobilization method");
}

double remaining_activity(const Immobilization& imm, Time elapsed) {
  require<SpecError>(elapsed.seconds() >= 0.0,
                     "elapsed time must be non-negative");
  return std::exp(-imm.decay.per_second() * elapsed.seconds());
}

std::string_view to_string(ImmobilizationMethod m) {
  switch (m) {
    case ImmobilizationMethod::kAdsorption:
      return "adsorption";
    case ImmobilizationMethod::kCovalent:
      return "covalent coupling";
    case ImmobilizationMethod::kEntrapment:
      return "matrix entrapment";
    case ImmobilizationMethod::kCrossLinking:
      return "cross-linking";
  }
  return "unknown";
}

}  // namespace biosens::electrode
