#include "core/platform.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "obs/span.hpp"

namespace biosens::core {

bool PanelBatchResult::all_accepted() const {
  for (const engine::JobReport& j : jobs) {
    if (!j.accepted) return false;
  }
  return true;
}

const ErrorInfo* PanelBatchResult::first_error() const {
  for (const engine::JobReport& j : jobs) {
    if (j.error.has_value()) return &*j.error;
  }
  return nullptr;
}

Expected<const AssayResult*> PanelReport::try_for_target(
    std::string_view target) const {
  obs::ObsSpan span(Layer::kCore, "panel-lookup");
  for (const AssayResult& r : results) {
    if (r.target == target) return &r;
  }
  return make_error(ErrorCode::kAnalysis, Layer::kCore, "panel lookup",
                    "panel has no result for target '" +
                        std::string(target) + "'");
}

std::size_t Platform::add_sensor(const CatalogEntry& entry,
                                 MeasurementOptions options) {
  require<SpecError>(calibrations_.empty(),
                     "cannot add sensors after calibration");
  sensors_.emplace_back(entry.spec, options);
  entries_.push_back(entry);
  return sensors_.size() - 1;
}

Platform Platform::paper_platform() {
  Platform p;
  for (const CatalogEntry& e : platform_entries()) {
    p.add_sensor(e);
  }
  return p;
}

const BiosensorModel& Platform::sensor(std::size_t i) const {
  require<SpecError>(i < sensors_.size(), "sensor index out of range");
  return sensors_[i];
}

const analysis::CalibrationResult& Platform::calibration(
    std::size_t i) const {
  require<SpecError>(calibrated(), "platform is not calibrated");
  require<SpecError>(i < calibrations_.size(), "sensor index out of range");
  return calibrations_[i];
}

Expected<void> Platform::try_calibrate_all(Rng& rng,
                                           const ProtocolOptions& options) {
  calibrations_.clear();
  calibrations_.reserve(sensors_.size());
  const CalibrationProtocol protocol(options);
  for (std::size_t i = 0; i < sensors_.size(); ++i) {
    const std::vector<Concentration> series = standard_series(
        entries_[i].published.range_low, entries_[i].published.range_high);
    auto outcome = protocol.try_run(sensors_[i], series, rng);
    if (!outcome) {
      // Leave the platform consistently "not calibrated", never
      // half-filled.
      calibrations_.clear();
      return ctx("calibrate " + sensors_[i].spec().name,
                 Expected<void>(outcome.error()));
    }
    calibrations_.push_back(std::move(outcome).value().result);
  }
  return ok();
}

Expected<PanelReport> Platform::try_assay(const chem::Sample& sample,
                                          Rng& rng,
                                          engine::SimCache* cache) const {
  obs::ObsSpan span(Layer::kCore, "assay-panel");
  BIOSENS_EXPECT(calibrated(), ErrorCode::kSpec, Layer::kCore, "assay panel",
                 "calibrate the platform before an assay");

  PanelReport report;
  report.results.reserve(sensors_.size());
  Volume volume = Volume::microliters(0.0);

  for (std::size_t i = 0; i < sensors_.size(); ++i) {
    const BiosensorModel& sensor = sensors_[i];
    const analysis::CalibrationResult& cal = calibrations_[i];

    AssayResult r;
    r.target = sensor.spec().target;
    r.sensor_name = sensor.spec().name;
    auto measured = span.watch(sensor.try_measure(sample, rng, cache));
    if (!measured) {
      return ctx("assay panel", Expected<PanelReport>(measured.error()));
    }
    r.response_a = measured.value().response_a;

    // Invert the calibration line; clamp negatives (noise around blank).
    const double est_mm =
        std::max((r.response_a - cal.fit.intercept) / cal.fit.slope, 0.0);
    r.estimated = Concentration::milli_molar(est_mm);
    r.above_lod = r.estimated >= cal.lod;
    r.within_linear_range = r.estimated >= cal.linear_range_low &&
                            r.estimated <= cal.linear_range_high;
    r.qc = review_assay(cal, r.response_a);
    report.results.push_back(std::move(r));

    volume += sensor.spec().assembly.geometry.min_sample_volume;
  }

  report.total_measurement_time = scheduled_panel_time();
  report.sample_volume_required = volume;
  return report;
}

PanelBatchResult Platform::run_panel_batch(
    const std::vector<chem::Sample>& samples, engine::Engine& engine,
    const PanelBatchOptions& options) const {
  require<SpecError>(calibrated(), "calibrate the platform before a batch");

  PanelBatchResult result;
  result.reports.resize(samples.size());

  // The engine's simulation cache (null when disabled) is shared across
  // every job of the batch; it only short-circuits deterministic
  // simulation stages, so batch results stay byte-identical with the
  // cache on or off and for any worker count.
  engine::SimCache* cache = engine.sim_cache();

  std::vector<engine::JobSpec> jobs;
  jobs.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    engine::JobSpec job;
    job.name = "panel-" + std::to_string(i);
    if (options.instruments > 0) {
      job.affinity = i % options.instruments;
    }
    job.body = [this, &samples, &result, cache, i](engine::JobContext& jc) {
      auto report = try_assay(samples[i], jc.rng, cache);
      if (!report) {
        return ctx("panel batch", Expected<bool>(report.error()));
      }
      bool accepted = true;
      for (const AssayResult& r : report.value().results) {
        accepted = accepted && r.qc.accepted;
      }
      result.reports[i] = std::move(report).value();
      return Expected<bool>(accepted);
    };
    jobs.push_back(std::move(job));
  }

  engine::BatchOptions batch;
  batch.seed = options.seed;
  batch.retry = options.retry;
  {
    const obs::ObsSpan span(Layer::kCore, "run-panel-batch");
    result.jobs = engine.run(jobs, batch);
  }
  return result;
}

Expected<void> Platform::try_calibrate_all_batch(
    engine::Engine& engine, std::uint64_t seed,
    const ProtocolOptions& options) {
  calibrations_.assign(sensors_.size(), analysis::CalibrationResult{});
  const CalibrationProtocol protocol(options);

  // A protocol re-presents identical content: every blank repeat and
  // level replicate is the same sample as the first, so a cache makes
  // each distinct sample simulate once. Jobs share the engine's cache
  // when it has one; otherwise each job memoizes its own run. Either
  // way results are byte-identical to an uncached run.
  engine::SimCache* shared_cache = engine.sim_cache();

  std::vector<engine::JobSpec> jobs;
  jobs.reserve(sensors_.size());
  for (std::size_t i = 0; i < sensors_.size(); ++i) {
    engine::JobSpec job;
    job.name = "calibrate-" + sensors_[i].spec().name;
    job.body = [this, &protocol, shared_cache, i](engine::JobContext& jc) {
      const std::vector<Concentration> series = standard_series(
          entries_[i].published.range_low, entries_[i].published.range_high);
      // The run's distinct samples are the blank plus one per level. One
      // shard holds all of them without eviction (SimCacheOptions).
      std::optional<engine::SimCache> run_cache;
      engine::SimCache* cache = shared_cache;
      if (cache == nullptr) {
        cache = &run_cache.emplace(engine::SimCacheOptions{
            .capacity = series.size() + 1, .shards = 1});
      }
      auto outcome = protocol.try_run(sensors_[i], series, jc.rng, cache);
      if (!outcome) return Expected<bool>(outcome.error());
      calibrations_[i] = std::move(outcome).value().result;
      return Expected<bool>(true);
    };
    jobs.push_back(std::move(job));
  }

  engine::BatchOptions batch;
  batch.seed = seed;
  batch.retry = engine::no_retry();
  const std::vector<engine::JobReport> reports = engine.run(jobs, batch);
  for (const engine::JobReport& r : reports) {
    if (r.error.has_value()) {
      // Leave the platform in a consistent "not calibrated" state rather
      // than half-filled. The lowest-indexed failure wins regardless of
      // which worker hit it first (reports are in input order).
      calibrations_.clear();
      return ctx("calibrate batch", Expected<void>(*r.error));
    }
  }
  return ok();
}

PanelReport Platform::assay_unmixed(const chem::Sample& sample,
                                    Rng& rng) const {
  require<SpecError>(calibrated(), "calibrate the platform before an assay");

  // Characterize the cross-sensitivity matrix once per platform.
  if (!panel_model_.has_value()) {
    std::vector<const BiosensorModel*> pointers;
    std::vector<Concentration> probes;
    pointers.reserve(sensors_.size());
    for (std::size_t i = 0; i < sensors_.size(); ++i) {
      pointers.push_back(&sensors_[i]);
      // Probe at half the device's design range.
      probes.push_back(0.5 * entries_[i].published.range_high);
    }
    panel_model_ = characterize_panel(pointers, probes);
  }
  require<AnalysisError>(panel_collinearity(*panel_model_) < 0.98,
                         "panel is chemically degenerate (same-isoform "
                         "sensors); deconvolution cannot resolve it");

  PanelReport report = try_assay(sample, rng).value();
  std::vector<double> responses;
  responses.reserve(report.results.size());
  for (const AssayResult& r : report.results) {
    responses.push_back(r.response_a);
  }
  const std::vector<Concentration> unmixed =
      deconvolve(*panel_model_, responses);
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    AssayResult& r = report.results[i];
    const analysis::CalibrationResult& cal = calibrations_[i];
    r.estimated = unmixed[i];
    r.above_lod = r.estimated >= cal.lod;
    r.within_linear_range = r.estimated >= cal.linear_range_low &&
                            r.estimated <= cal.linear_range_high;
  }
  return report;
}

Time Platform::measurement_time(const BiosensorModel& s) const {
  // Protocol timing is a transducer property (hold duration, sweep
  // window, gate dwell); the scheduler no longer special-cases
  // techniques.
  return s.measurement_time();
}

Time Platform::scheduled_panel_time() const {
  // Channels on one microfabricated chip run concurrently (five working
  // electrodes share the cell); every other electrode is sequential.
  constexpr std::size_t kChipChannels = 5;
  double chip_longest = 0.0;
  std::size_t chip_used = 0;
  double sequential = 0.0;

  for (const BiosensorModel& s : sensors_) {
    const double t = measurement_time(s).seconds();
    const bool on_chip = s.spec().assembly.geometry.working_material ==
                             electrode::Material::kGold &&
                         s.spec().assembly.geometry.working_area <
                             Area::square_millimeters(1.0);
    if (on_chip && chip_used < kChipChannels) {
      chip_longest = std::max(chip_longest, t);
      ++chip_used;
    } else {
      sequential += t;
    }
  }
  return Time::seconds(chip_longest + sequential);
}

}  // namespace biosens::core
