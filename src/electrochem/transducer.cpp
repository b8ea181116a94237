#include "electrochem/transducer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/peaks.hpp"
#include "common/error.hpp"
#include "electrochem/chrono_batch.hpp"
#include "electrochem/chronoamperometry.hpp"
#include "electrochem/dpv.hpp"
#include "electrochem/voltammetry.hpp"
#include "engine/cohort.hpp"
#include "readout/chain.hpp"

namespace biosens::electrochem {
namespace {

/// Autoranging: pick the channel gain from the ideal trace amplitude, as
/// a real potentiostat does after its settling read. Blanks get the
/// highest gain that still resolves the electrode noise.
template <class Samples>
Expected<readout::SignalChain> try_autoranged_chain(
    const Samples& current_a, Current blank_noise,
    std::size_t smoothing_window) {
  double peak = 0.0;
  for (double i : current_a) peak = std::max(peak, std::abs(i));
  const double fs =
      std::max(1.3 * peak, 20.0 * std::abs(blank_noise.amps()));
  auto config = readout::SignalChain::try_for_full_scale(Current::amps(fs));
  if (!config) {
    return ctx("autorange", Expected<readout::SignalChain>(config.error()));
  }
  readout::ChainConfig cfg = config.value();
  cfg.smoothing_window = smoothing_window;
  return ctx("autorange", readout::SignalChain::try_create(std::move(cfg)));
}

}  // namespace

AmperometricTransducer::AmperometricTransducer(
    core::SensorSpec spec, core::MeasurementOptions options)
    : spec_(std::move(spec)),
      options_(options),
      layer_(electrode::try_synthesize(spec_.assembly).value()) {}

Cell AmperometricTransducer::make_cell(const chem::Sample& sample) const {
  return Cell(layer_, sample, options_.hydrodynamics);
}

readout::NoiseSpec AmperometricTransducer::noise_spec() const {
  readout::NoiseSpec spec;
  spec.electrode_lf_rms = layer_.blank_noise_rms;
  return spec;
}

Time AmperometricTransducer::measurement_time() const {
  if (spec_.technique == core::Technique::kChronoamperometry) {
    return spec_.ca_hold;
  }
  // One full triangular sweep at the spec's scan rate (DPV's staircase
  // covers the same window, so the same estimate serves both).
  const double window =
      std::abs(spec_.cv_vertex.volts() - spec_.cv_start.volts());
  return Time::seconds(2.0 * window /
                       spec_.cv_scan_rate.volts_per_second());
}

engine::CacheKey AmperometricTransducer::simulation_key(
    const chem::Sample& sample) const {
  engine::CacheKey key;

  // Spec identity + protocol parameters.
  key.add(std::string_view(spec_.name));
  key.add(std::string_view(spec_.citation));
  key.add(std::string_view(spec_.target));
  key.add(static_cast<std::int64_t>(spec_.technique));
  key.add(spec_.ca_step_potential.volts());
  key.add(spec_.ca_hold.seconds());
  key.add(spec_.cv_scan_rate.volts_per_second());
  key.add(spec_.cv_start.volts());
  key.add(spec_.cv_vertex.volts());

  // The synthesized layer — every assembly field that reaches the
  // physics is folded into these (try_synthesize() is deterministic).
  key.add(std::string_view(layer_.substrate));
  key.add(layer_.substrate_diffusivity.m2_per_s());
  key.add(layer_.wired_coverage.mol_per_m2());
  key.add(layer_.k_cat_app.per_second());
  key.add(layer_.k_m_app.molar());
  key.add(static_cast<std::int64_t>(layer_.electrons));
  key.add(layer_.geometric_area.square_meters());
  key.add(static_cast<std::int64_t>(layer_.working_material));
  key.add(layer_.double_layer.farads());
  key.add(layer_.blank_noise_rms.amps());
  key.add(layer_.electron_transfer_rate.per_second());
  key.add(layer_.formal_potential.volts());
  key.add(layer_.solution_resistance.ohms());
  key.add(layer_.area_enhancement);
  key.add(layer_.interferent_transmission);
  key.add(layer_.environment.oxygen_km.molar());
  key.add(layer_.environment.ph_optimum);
  key.add(layer_.environment.ph_width);
  key.add(layer_.environment.activation_energy_kj_mol);
  key.add(static_cast<std::uint64_t>(layer_.secondary.size()));
  for (const electrode::CrossActivity& s : layer_.secondary) {
    key.add(std::string_view(s.substrate));
    key.add(s.diffusivity.m2_per_s());
    key.add(s.k_cat.per_second());
    key.add(s.k_m_app.molar());
    key.add(static_cast<std::int64_t>(s.electrons));
  }

  // Numerical / protocol options the simulators read.
  key.add(options_.hydrodynamics.stirred);
  key.add(options_.hydrodynamics.stir_rate_rpm);
  key.add(options_.chrono.duration.seconds());
  key.add(options_.chrono.dt.seconds());
  key.add(static_cast<std::uint64_t>(options_.chrono.grid_nodes));
  key.add(options_.chrono.include_capacitive);
  key.add(options_.chrono.include_interferents);
  key.add(static_cast<std::uint64_t>(options_.voltammetry.points_per_sweep));
  key.add(options_.voltammetry.include_capacitive);
  key.add(options_.voltammetry.include_interferents);

  // The sample: buffer, oxygenation, and the sorted composition map.
  key.add(std::string_view(sample.buffer().name));
  key.add(sample.buffer().ph);
  key.add(sample.buffer().ionic_strength.molar());
  key.add(sample.buffer().temperature.kelvin());
  key.add(sample.dissolved_oxygen().molar());
  const std::vector<std::string> species = sample.species_names();
  key.add(static_cast<std::uint64_t>(species.size()));
  for (const std::string& name : species) {
    key.add(std::string_view(name));
    key.add(sample.concentration_of(name).molar());
  }
  return key;
}

engine::CohortPrefillStats AmperometricTransducer::prefill_cohort(
    std::span<const chem::Sample> samples, engine::SimCache& cache) const {
  engine::CohortPrefillStats stats;
  // Only chronoamperometry has a lockstep batch runner today; other
  // techniques fall through to the ordinary per-job path.
  if (spec_.technique != core::Technique::kChronoamperometry) return stats;
  if (samples.empty()) return stats;

  // Prefill runs on the caller's thread, outside the engine's exception
  // adapter, so everything constructed below must be known not to
  // throw. Mirror the Cell / ChronoamperometrySim constructor
  // preconditions and bail to the serial path on a violation — the jobs
  // surface the identical structured error with full context.
  ChronoOptions chrono = options_.chrono;
  chrono.duration = spec_.ca_hold;
  const bool constructible =
      chrono.duration.seconds() > 0.0 && chrono.dt.seconds() > 0.0 &&
      chrono.dt.seconds() < chrono.duration.seconds() &&
      chrono.grid_nodes >= 3 && !layer_.substrate.empty() &&
      (!options_.hydrodynamics.stirred ||
       options_.hydrodynamics.stir_rate_rpm > 0.0);
  if (!constructible) return stats;

  // Group by content key: duplicates collapse onto one lane, and keys
  // already resident are skipped entirely (recomputing them would
  // waste the warm-cohort fast path the cache exists for).
  engine::CohortGrouper grouper;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    grouper.add(simulation_key(samples[i]), i);
  }

  const PotentialStep step(Potential::volts(0.0), spec_.ca_step_potential,
                           spec_.ca_hold);

  std::vector<engine::CacheKey> keys;
  std::vector<ChronoamperometrySim> sims;
  keys.reserve(grouper.size());
  sims.reserve(grouper.size());
  for (const engine::CohortGroup& g : grouper.groups()) {
    if (cache.find(g.key) != nullptr) continue;
    sims.emplace_back(make_cell(samples[g.members.front()]), step, chrono);
    keys.push_back(g.key);
  }
  if (sims.empty()) return stats;

  // Best-effort: on any lane's structured error, seed nothing — the
  // per-job serial path reproduces the identical error byte-for-byte.
  auto batch = try_run_chrono_batch(sims);
  if (!batch) return stats;
  ChronoBatchResult result = std::move(batch).value();
  for (std::size_t k = 0; k < keys.size(); ++k) {
    cache.put<TimeSeries>(keys[k], std::move(result.traces[k]));
  }
  stats.groups = 1;
  stats.lanes = static_cast<std::uint64_t>(sims.size());
  stats.factorizations = result.factorizations;
  return stats;
}

Expected<core::Measurement> AmperometricTransducer::try_transduce(
    const chem::Sample& sample, Rng& rng, engine::SimCache* cache) const {
  core::Measurement m;
  m.technique = spec_.technique;

  // The simulation cache memoizes only this deterministic pre-noise
  // stage; every noisy stage below it still consumes `rng`, so results
  // are byte-identical whether a key hits, misses, or no cache exists.
  // Failures return unwrapped — the caller adds the one context frame.
  engine::CacheKey key;
  if (cache != nullptr) key = simulation_key(sample);

  if (spec_.technique == core::Technique::kChronoamperometry) {
    std::shared_ptr<const TimeSeries> ideal;
    if (cache != nullptr) ideal = cache->find_as<TimeSeries>(key);
    if (!ideal) {
      ChronoOptions chrono = options_.chrono;
      chrono.duration = spec_.ca_hold;
      const PotentialStep step(Potential::volts(0.0),
                               spec_.ca_step_potential, spec_.ca_hold);
      const ChronoamperometrySim sim(make_cell(sample), step, chrono);
      auto run = sim.try_run();
      if (!run) return run.error();
      ideal = cache != nullptr
                  ? cache->put<TimeSeries>(key, std::move(run).value())
                  : std::make_shared<const TimeSeries>(
                        std::move(run).value());
    }
    auto chain = try_autoranged_chain(ideal->current_a,
                                      layer_.blank_noise_rms,
                                      options_.smoothing_window);
    if (!chain) return chain.error();
    auto acquired = chain.value().try_acquire(*ideal, noise_spec(), rng);
    if (!acquired) return acquired.error();
    m.trace = std::move(acquired).value();
    auto tail = m.trace.try_tail_mean_a(0.1);
    if (!tail) return tail.error();
    m.response_a = tail.value();
    return m;
  }

  if (spec_.technique == core::Technique::kDifferentialPulseVoltammetry) {
    std::shared_ptr<const DpvTrace> cached;
    if (cache != nullptr) cached = cache->find_as<DpvTrace>(key);
    if (!cached) {
      const DifferentialPulseSim sim(make_cell(sample), standard_cyp_dpv());
      auto run = sim.try_run();
      if (!run) return run.error();
      cached = cache != nullptr
                   ? cache->put<DpvTrace>(key, std::move(run).value())
                   : std::make_shared<const DpvTrace>(
                         std::move(run).value());
    }
    const DpvTrace& ideal = *cached;

    // The pulse/base subtraction happens inside one staircase step, so
    // only the part of the low-frequency background that decorrelates
    // over the sample gap survives; white noise doubles in variance.
    readout::NoiseSpec diff_noise = noise_spec();
    const double gap = ideal.sample_gap_s;
    const double tau = diff_noise.lf_correlation.seconds();
    diff_noise.electrode_lf_rms =
        Current::amps(diff_noise.electrode_lf_rms.amps() *
                      std::sqrt(2.0 * (1.0 - std::exp(-gap / tau))));
    diff_noise.white_density_a_per_sqrt_hz *= std::sqrt(2.0);

    // Acquire the differential samples as a uniformly sampled series.
    TimeSeries as_series;
    const double period = 0.2;  // standard_cyp_dpv step period [s]
    for (std::size_t k = 0; k < ideal.size(); ++k) {
      as_series.push(period * static_cast<double>(k + 1),
                     ideal.delta_current_a[k]);
    }
    auto chain = try_autoranged_chain(as_series.current_a,
                                      diff_noise.electrode_lf_rms,
                                      options_.smoothing_window);
    if (!chain) return chain.error();
    auto acquired = chain.value().try_acquire(as_series, diff_noise, rng);
    if (!acquired) return acquired.error();

    m.dpv.potential_v = ideal.potential_v;
    m.dpv.delta_current_a = std::move(acquired).value().current_a;
    m.dpv.sample_gap_s = ideal.sample_gap_s;
    m.peak = analysis::find_dpv_peak(m.dpv);
    m.response_a = m.peak.has_value() ? m.peak->height_a : 0.0;
    return m;
  }

  std::shared_ptr<const Voltammogram> ideal;
  if (cache != nullptr) ideal = cache->find_as<Voltammogram>(key);
  if (!ideal) {
    const CyclicSweep sweep(spec_.cv_start, spec_.cv_vertex,
                            spec_.cv_scan_rate);
    const VoltammetrySim sim(make_cell(sample), sweep,
                             options_.voltammetry);
    auto run = sim.try_run();
    if (!run) return run.error();
    ideal = cache != nullptr
                ? cache->put<Voltammogram>(key, std::move(run).value())
                : std::make_shared<const Voltammogram>(
                      std::move(run).value());
  }
  auto chain = try_autoranged_chain(ideal->current_a,
                                    layer_.blank_noise_rms,
                                    options_.smoothing_window);
  if (!chain) return chain.error();
  auto acquired = chain.value().try_acquire(*ideal, noise_spec(), rng);
  if (!acquired) return acquired.error();
  m.voltammogram = std::move(acquired).value();
  auto peak = analysis::try_find_cathodic_peak(m.voltammogram);
  if (!peak) return peak.error();
  m.peak = peak.value();
  m.response_a = m.peak.has_value() ? m.peak->height_a : 0.0;
  return m;
}

double AmperometricTransducer::ideal_response_a(
    const chem::Sample& sample) const {
  if (spec_.technique == core::Technique::kDifferentialPulseVoltammetry) {
    const DifferentialPulseSim sim(make_cell(sample), standard_cyp_dpv());
    const auto peak = analysis::find_dpv_peak(sim.try_run().value());
    return peak.has_value() ? peak->height_a : 0.0;
  }
  if (spec_.technique == core::Technique::kChronoamperometry) {
    ChronoOptions chrono = options_.chrono;
    chrono.duration = spec_.ca_hold;
    const PotentialStep step(Potential::volts(0.0), spec_.ca_step_potential,
                             spec_.ca_hold);
    const ChronoamperometrySim sim(make_cell(sample), step, chrono);
    return sim.try_run().value().try_tail_mean_a(0.1).value();
  }
  const CyclicSweep sweep(spec_.cv_start, spec_.cv_vertex,
                          spec_.cv_scan_rate);
  const VoltammetrySim sim(make_cell(sample), sweep, options_.voltammetry);
  const auto peak =
      analysis::try_find_cathodic_peak(sim.try_run().value()).value();
  return peak.has_value() ? peak->height_a : 0.0;
}

std::shared_ptr<const core::Transducer> make_amperometric_transducer(
    core::SensorSpec spec, core::MeasurementOptions options) {
  return std::make_shared<const AmperometricTransducer>(std::move(spec),
                                                        options);
}

}  // namespace biosens::electrochem
