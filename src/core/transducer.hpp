// Transducer: the transduction-mechanism seam of the platform.
//
// Section 3 of the paper classifies biosensors along a transduction axis
// (optical, piezoelectric, field-effect, amperometric, ...). The core
// pipeline — calibration protocol, catalog, platform scheduling, engine
// batches, service sessions — is transduction-agnostic: it needs a
// device that turns a chem::Sample into a noisy scalar response plus a
// diagnostic artifact. This interface is that seam. src/electrochem/
// provides the amperometric implementation (the paper's own platform);
// src/fet/ provides the field-effect one (docs/transducers.md).
//
// Contract for implementations:
//  - try_transduce() is the only stochastic entry point; it must consume
//    `rng` identically whether `cache` hits, misses, or is null, so a
//    Measurement is byte-identical under caching and across worker
//    counts (docs/determinism.md).
//  - simulation_key() must hash every input of the deterministic
//    pre-noise stage — and nothing the noisy stage reads — and must not
//    collide across transduction families (tag a family domain first).
//  - Errors return through Expected without an outer context frame; the
//    caller (BiosensorModel::try_measure) wraps the chain once.
#pragma once

#include <memory>
#include <optional>

#include "analysis/peaks.hpp"
#include "chem/solution.hpp"
#include "classify/taxonomy.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/spec.hpp"
#include "electrochem/cell.hpp"
#include "electrochem/chronoamperometry.hpp"
#include "electrochem/dpv.hpp"
#include "electrochem/trace.hpp"
#include "electrochem/voltammetry.hpp"
#include "engine/sim_cache.hpp"
#include "fet/trace.hpp"
#include "readout/noise.hpp"

namespace biosens::electrode {
struct EffectiveLayer;
}  // namespace biosens::electrode

namespace biosens::core {

/// One complete measurement: the scalar response plus the raw artifact
/// behind it (trace, voltammogram, or transfer curve) for plotting and
/// diagnostics. Which artifact is populated depends on the transducer.
struct Measurement {
  double response_a = 0.0;  ///< steady-state current or peak height [A]
  Technique technique = Technique::kChronoamperometry;
  electrochem::TimeSeries trace;            ///< chronoamperometry, FET hold
  electrochem::Voltammogram voltammogram;   ///< cyclic voltammetry only
  electrochem::DpvTrace dpv;                ///< DPV only
  std::optional<analysis::Peak> peak;       ///< voltammetric techniques
  fet::TransferCurve transfer;              ///< field-effect only
};

/// Numerical/protocol knobs shared by all measurements of a sensor.
struct MeasurementOptions {
  electrochem::Hydrodynamics hydrodynamics{true, 400.0};
  electrochem::ChronoOptions chrono{};
  electrochem::VoltammetryOptions voltammetry{};
  /// Boxcar window of the acquisition chain (readout integration).
  std::size_t smoothing_window = 5;
};

/// Abstract transduction backend: surface binding/turnover -> signal
/// generation -> noisy readout trace, reduced to one scalar response.
class Transducer {
 public:
  virtual ~Transducer() = default;

  /// Transduction family, on the survey taxonomy axis.
  [[nodiscard]] virtual classify::Transduction kind() const = 0;

  /// Full noisy measurement of a sample. Deterministic given the rng
  /// state; rng consumption must not depend on `cache`.
  [[nodiscard]] virtual Expected<Measurement> try_transduce(
      const chem::Sample& sample, Rng& rng,
      engine::SimCache* cache) const = 0;

  /// Noiseless response (physics only, no readout).
  [[nodiscard]] virtual double ideal_response_a(
      const chem::Sample& sample) const = 0;

  /// Content hash of everything the deterministic (cacheable) stage
  /// reads; domain-separated per transduction family.
  [[nodiscard]] virtual engine::CacheKey simulation_key(
      const chem::Sample& sample) const = 0;

  /// Noise specification the readout chain applies for this device.
  [[nodiscard]] virtual readout::NoiseSpec noise_spec() const = 0;

  /// Wall-clock duration of one measurement (platform scheduling).
  [[nodiscard]] virtual Time measurement_time() const = 0;

  /// Sensing area (electrode geometric area / FET channel area).
  [[nodiscard]] virtual Area active_area() const = 0;

  /// The synthesized electrochemical layer, for backends that have one;
  /// nullptr for non-amperometric transducers.
  [[nodiscard]] virtual const electrode::EffectiveLayer* effective_layer()
      const {
    return nullptr;
  }
};

/// Builds the transducer for a spec: field-effect specs dispatch to the
/// fet backend, everything else to the amperometric (electrochemical)
/// one. Throws SpecError/AssemblyError exactly where the pre-refactor
/// BiosensorModel constructor did.
[[nodiscard]] std::shared_ptr<const Transducer> make_transducer(
    const SensorSpec& spec, const MeasurementOptions& options);

}  // namespace biosens::core
