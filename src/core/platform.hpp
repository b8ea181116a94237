// The multi-target platform: several sensors operated as one instrument.
//
// This is the system claim of the paper's abstract — "a platform for
// multiple target detection ... modular, with a clear separation between
// the chemical and the electrical components". A Platform owns a set of
// calibrated BiosensorModels, schedules their measurements under the
// hardware constraints (the microfabricated chip carries five working
// electrodes that share a counter/reference and can run concurrently;
// screen-printed electrodes are measured one at a time), and converts raw
// responses back into concentrations.
#pragma once

#include <map>
#include <optional>
#include <memory>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "core/catalog.hpp"
#include "core/deconvolution.hpp"
#include "core/protocol.hpp"
#include "core/qc.hpp"
#include "core/sensor.hpp"
#include "engine/engine.hpp"

namespace biosens::core {

/// One quantified analyte in an assay report.
struct AssayResult {
  std::string target;
  std::string sensor_name;
  double response_a = 0.0;
  Concentration estimated;     ///< response mapped through the calibration
  bool within_linear_range = true;
  bool above_lod = true;
  QcReport qc;                 ///< per-assay acceptance checks
};

/// A full panel readout.
struct PanelReport {
  std::vector<AssayResult> results;
  Time total_measurement_time;  ///< wall time under the scheduler
  Volume sample_volume_required;

  /// Result for a target; a core-layer analysis error when absent.
  [[nodiscard]] Expected<const AssayResult*> try_for_target(
      std::string_view target) const;
};

/// Options of an engine-backed panel batch (see run_panel_batch).
struct PanelBatchOptions {
  /// Root seed; sample i is assayed with the stream child(i) (see
  /// docs/determinism.md).
  std::uint64_t seed = 2012;
  /// Re-measurement policy for panels whose QC rejects any assay.
  engine::RetryPolicy retry{};
  /// Number of physical instruments the batch is spread over. Panels
  /// mapped to the same instrument (sample index mod instruments) are
  /// serialized — one chip's five electrodes share a counter/reference
  /// and run one panel at a time. 0 = unlimited instruments (every
  /// panel may run concurrently).
  std::size_t instruments = 0;
};

/// Outcome of an engine-backed panel batch: the panel reports in sample
/// order plus the engine's per-job execution records.
struct PanelBatchResult {
  std::vector<PanelReport> reports;
  std::vector<engine::JobReport> jobs;

  /// True when every panel's final attempt passed QC.
  [[nodiscard]] bool all_accepted() const;

  /// The structured error of the lowest-indexed failed job, or nullptr
  /// when no job carries one (QC rejections without a fault included).
  [[nodiscard]] const ErrorInfo* first_error() const;
};

/// The multi-sensor instrument.
class Platform {
 public:
  Platform() = default;

  /// Adds a sensor built from a catalog entry. Returns its index.
  std::size_t add_sensor(const CatalogEntry& entry,
                         MeasurementOptions options = {});

  /// Builds the paper's full seven-sensor platform (Table 1).
  [[nodiscard]] static Platform paper_platform();

  /// Calibrates every sensor over its standard series; must run before
  /// try_assay(). Deterministic given the rng. On any sensor's failure
  /// the platform is left consistently *not* calibrated and the
  /// structured error names the offending sensor in its context chain.
  [[nodiscard]] Expected<void> try_calibrate_all(
      Rng& rng, const ProtocolOptions& options = {});

  /// Measures every sensor against the sample and reports estimated
  /// concentrations. Requires a calibration first. A measurement failure
  /// on any sensor surfaces as the structured error of the whole panel,
  /// with an "assay panel" context frame — no exceptions cross the core
  /// boundary. A non-null `cache` memoizes each sensor's deterministic
  /// pre-noise simulation stage (see BiosensorModel::try_measure);
  /// results are byte-identical with or without it.
  [[nodiscard]] Expected<PanelReport> try_assay(
      const chem::Sample& sample, Rng& rng,
      engine::SimCache* cache = nullptr) const;

  /// Assays a whole batch of samples on the engine — the service entry
  /// point. One panel-assay job per sample; reports come back in sample
  /// order. Deterministic under the engine contract: the result data
  /// depends only on options.seed and the sample order, not on the
  /// engine's worker count. Panels whose QC rejects any assay are
  /// re-measured under options.retry (each attempt with its own derived
  /// stream); the last attempt's report is returned either way.
  /// Thread-safe: try_assay() mutates nothing. Requires a calibration.
  [[nodiscard]] PanelBatchResult run_panel_batch(
      const std::vector<chem::Sample>& samples, engine::Engine& engine,
      const PanelBatchOptions& options = {}) const;

  /// Calibrates every sensor as one engine batch (one calibration-sweep
  /// job per sensor, sensor i on stream child(i)). The engine-native
  /// counterpart of try_calibrate_all(): faster on a parallel engine,
  /// and its results are identical for every worker count — but it is a
  /// *different* (per-sensor-seeded) derivation than the serial shared-
  /// rng try_calibrate_all(), so the two produce different (both valid)
  /// calibrations. See docs/determinism.md. Each sensor's repeated
  /// samples simulate once, through the engine's sim cache or, when the
  /// engine has none, a cache local to that sensor's job. Scans the
  /// engine's per-job reports and surfaces the lowest-indexed sensor's
  /// structured error, leaving the platform consistently uncalibrated.
  [[nodiscard]] Expected<void> try_calibrate_all_batch(
      engine::Engine& engine, std::uint64_t seed,
      const ProtocolOptions& options = {});

  /// Like try_assay(), but additionally unmixes isoform cross-reactivity
  /// through the panel's cross-sensitivity matrix (characterized once,
  /// lazily). The per-target estimates in the report are the unmixed
  /// concentrations. Throws AnalysisError when the panel is chemically
  /// degenerate (collinearity above 0.98).
  [[nodiscard]] PanelReport assay_unmixed(const chem::Sample& sample,
                                          Rng& rng) const;

  [[nodiscard]] std::size_t sensor_count() const { return sensors_.size(); }
  [[nodiscard]] const BiosensorModel& sensor(std::size_t i) const;
  [[nodiscard]] const analysis::CalibrationResult& calibration(
      std::size_t i) const;
  [[nodiscard]] bool calibrated() const { return !calibrations_.empty(); }

  /// Wall time to run the whole panel once: concurrent within a
  /// microfabricated chip (up to five channels), sequential otherwise.
  [[nodiscard]] Time scheduled_panel_time() const;

 private:
  [[nodiscard]] Time measurement_time(const BiosensorModel& s) const;

  std::vector<BiosensorModel> sensors_;
  std::vector<CatalogEntry> entries_;
  std::vector<analysis::CalibrationResult> calibrations_;
  /// Cross-sensitivity model, characterized lazily by assay_unmixed().
  mutable std::optional<PanelModel> panel_model_;
};

}  // namespace biosens::core
