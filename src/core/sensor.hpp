// BiosensorModel: a SensorSpec wired to a transduction backend.
//
// try_measure() runs the complete stack the paper's device runs physically —
// surface chemistry, signal generation, noisy readout, reduction to one
// response value — but the mechanism-specific pipeline lives behind the
// core::Transducer seam (core/transducer.hpp): amperometric specs run
// the enzymatic/electrochemical simulation + potentiostat chain
// (src/electrochem/), field-effect specs the transfer-curve + hold
// readout (src/fet/). Everything above this class (protocol, platform,
// engine, service) is transduction-agnostic.
#pragma once

#include <memory>

#include "chem/solution.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/spec.hpp"
#include "core/transducer.hpp"
#include "engine/sim_cache.hpp"

namespace biosens::core {

/// A runnable sensor: spec + the transducer built for its technique.
class BiosensorModel {
 public:
  explicit BiosensorModel(SensorSpec spec, MeasurementOptions options = {});

  /// Full noisy measurement of a sample. Every fallible stage of the
  /// pipeline (sample-species validation, the backend simulation,
  /// autoranging, acquisition, trace reduction) reports through the
  /// returned Expected with a "measure <sensor>" context frame — no
  /// exceptions cross the core boundary.
  ///
  /// When `cache` is non-null the deterministic pre-noise stage is
  /// memoized under simulation_key(); the noisy readout still draws from
  /// `rng`, so the returned Measurement is byte-identical with the cache
  /// on or off.
  [[nodiscard]] Expected<Measurement> try_measure(
      const chem::Sample& sample, Rng& rng,
      engine::SimCache* cache = nullptr) const;

  /// Canonical content hash of everything the deterministic simulation
  /// stage reads (spec identity, device physics, numerical options,
  /// sample composition), domain-separated per transduction family.
  /// Readout-only knobs (smoothing window, noise) are deliberately
  /// excluded — they act after the cached stage.
  [[nodiscard]] engine::CacheKey simulation_key(
      const chem::Sample& sample) const {
    return transducer_->simulation_key(sample);
  }

  /// Noiseless response (physics only, no readout) — the deterministic
  /// backbone used by inverse design and fast sweeps.
  [[nodiscard]] double ideal_response_a(const chem::Sample& sample) const {
    return transducer_->ideal_response_a(sample);
  }

  /// Noise specification the readout applies for this device.
  [[nodiscard]] readout::NoiseSpec noise_spec() const {
    return transducer_->noise_spec();
  }

  /// Wall-clock duration of one measurement (platform scheduling).
  [[nodiscard]] Time measurement_time() const {
    return transducer_->measurement_time();
  }

  /// The sensor's transduction family (survey taxonomy axis).
  [[nodiscard]] classify::Transduction transduction() const {
    return transducer_->kind();
  }

  [[nodiscard]] const SensorSpec& spec() const { return spec_; }

  /// The synthesized electrochemical layer. Only the amperometric
  /// backend has one; throws SpecError for field-effect sensors (callers
  /// that must stay transduction-agnostic go through the Transducer).
  [[nodiscard]] const electrode::EffectiveLayer& layer() const;

  [[nodiscard]] const Transducer& transducer() const { return *transducer_; }
  [[nodiscard]] Area electrode_area() const {
    return transducer_->active_area();
  }

 private:
  SensorSpec spec_;
  MeasurementOptions options_;
  std::shared_ptr<const Transducer> transducer_;
};

}  // namespace biosens::core
