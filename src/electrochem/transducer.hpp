// Amperometric implementation of the core Transducer seam.
//
// This is the paper's own transduction family, carved verbatim out of
// the pre-refactor BiosensorModel: enzymatic/electrochemical simulation
// produces an ideal trace, the readout chain corrupts and digitizes it,
// and the analysis step reduces it to one response value (steady-state
// current for the oxidase sensors, baseline-corrected cathodic peak
// height for the CYP sensors). Behavior — including rng consumption,
// cache keys, and error chains — is byte-identical to the pre-seam code
// (tests/test_amperometric_identity.cpp pins that).
#pragma once

#include <memory>

#include "core/spec.hpp"
#include "core/transducer.hpp"
#include "electrode/assembly.hpp"

namespace biosens::electrochem {

class AmperometricTransducer final : public core::Transducer {
 public:
  /// Synthesizes the effective layer from the spec's assembly; throws
  /// AssemblyError exactly as the pre-refactor constructor did. The spec
  /// is validated afterwards by BiosensorModel, not here.
  AmperometricTransducer(core::SensorSpec spec,
                         core::MeasurementOptions options);

  [[nodiscard]] classify::Transduction kind() const override {
    return classify::Transduction::kAmperometric;
  }
  [[nodiscard]] Expected<core::Measurement> try_transduce(
      const chem::Sample& sample, Rng& rng,
      engine::SimCache* cache) const override;
  [[nodiscard]] double ideal_response_a(
      const chem::Sample& sample) const override;
  [[nodiscard]] engine::CacheKey simulation_key(
      const chem::Sample& sample) const override;
  [[nodiscard]] readout::NoiseSpec noise_spec() const override;
  [[nodiscard]] Time measurement_time() const override;
  [[nodiscard]] Area active_area() const override {
    return layer_.geometric_area;
  }
  [[nodiscard]] const electrode::EffectiveLayer* effective_layer()
      const override {
    return &layer_;
  }

 private:
  [[nodiscard]] Cell make_cell(const chem::Sample& sample) const;

  core::SensorSpec spec_;
  core::MeasurementOptions options_;
  electrode::EffectiveLayer layer_;
};

/// Factory used by core::make_transducer().
[[nodiscard]] std::shared_ptr<const core::Transducer>
make_amperometric_transducer(core::SensorSpec spec,
                             core::MeasurementOptions options);

}  // namespace biosens::electrochem
