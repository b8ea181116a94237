#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>

#include "analysis/peaks.hpp"
#include "electrochem/cell.hpp"
#include "electrochem/chronoamperometry.hpp"
#include "electrochem/voltammetry.hpp"
#include "electrochem/waveform.hpp"
#include "fet/noise.hpp"
#include "fet/transducer.hpp"
#include "readout/chain.hpp"
#include "stats.hpp"

namespace e2e {

using namespace biosens;

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanId Tracer::begin(const char* name, SpanId parent, std::uint64_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  std::lock_guard<std::mutex> lock(mutex_);
  span.start_ns = now_ns();
  spans_.push_back(span);
  return static_cast<SpanId>(spans_.size() - 1);
}

void Tracer::end(SpanId id) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

void Tracer::add(const char* name, SpanId parent, std::uint64_t request,
                 std::int64_t start_ns, std::int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, parent, request, start_ns, end_ns});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write_jsonl(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!out) return false;
  const std::int64_t origin = all.empty() ? 0 : all.front().start_ns;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(out.get(),
                 "{\"id\":%zu,\"name\":%s,\"parent\":%lld,\"request\":%llu,"
                 "\"start_ns\":%lld,\"dur_ns\":%lld}\n",
                 i, json_string(s.name).c_str(),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - s.start_ns));
  }
  return std::ferror(out.get()) == 0;
}

std::string_view to_string(Family family) {
  switch (family) {
    case Family::kChrono: return "chrono";
    case Family::kCv: return "cv";
    case Family::kFet: return "fet";
  }
  return "unknown";
}

Expected<Family> family_of(const core::BiosensorModel& sensor) {
  switch (sensor.spec().technique) {
    case core::Technique::kChronoamperometry: return Family::kChrono;
    case core::Technique::kCyclicVoltammetry: return Family::kCv;
    case core::Technique::kFieldEffectTransfer: return Family::kFet;
    default: break;
  }
  return make_error(ErrorCode::kSpec, Layer::kCore, "ledger replay",
                    "no layer replay for the technique of '" +
                        sensor.spec().name + "'");
}

bool same_bits(double a, double b) {
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

namespace {

/// The potentiostat's autoranging as the amperometric backend applies
/// it: gain from the ideal trace's peak, floor at the blank noise.
template <class Samples>
Expected<readout::SignalChain> autoranged_chain(const Samples& current_a,
                                                Current blank_noise,
                                                std::size_t window) {
  double peak = 0.0;
  for (double i : current_a) peak = std::max(peak, std::abs(i));
  const double fs = std::max(1.3 * peak, 20.0 * std::abs(blank_noise.amps()));
  auto config = readout::SignalChain::try_for_full_scale(Current::amps(fs));
  if (!config) return config.error();
  readout::ChainConfig cfg = config.value();
  cfg.smoothing_window = window;
  return readout::SignalChain::try_create(std::move(cfg));
}

/// The cached-or-simulated ideal artifact of an amperometric sensor.
template <class Artifact, class Simulate>
Expected<std::shared_ptr<const Artifact>> ideal_artifact(
    const core::BiosensorModel& sensor, const chem::Sample& sample,
    engine::SimCache* cache, Tracer& tracer, SpanId parent,
    std::uint64_t request, ReplayCounts& counts, Simulate&& simulate) {
  std::shared_ptr<const Artifact> ideal;
  if (cache != nullptr) {
    engine::CacheKey key;
    {
      const ScopedSpan span(&tracer, "engine.cache_key", parent, request);
      key = sensor.simulation_key(sample);
    }
    const ScopedSpan span(&tracer, "engine.cache_lookup", parent, request);
    ideal = cache->find_as<Artifact>(key);
    counts.lookups += 1;
    if (ideal) counts.hits += 1;
  }
  if (ideal) return ideal;
  const ScopedSpan span(&tracer, "electrochem.sim", parent, request);
  auto run = simulate();
  if (!run) return run.error();
  counts.sims += 1;
  return std::make_shared<const Artifact>(std::move(run).value());
}

Expected<double> replay_chrono(const core::BiosensorModel& sensor,
                               const core::MeasurementOptions& options,
                               const chem::Sample& sample, Rng& rng,
                               engine::SimCache* cache, Tracer& tracer,
                               SpanId parent, std::uint64_t request,
                               ReplayCounts& counts) {
  const core::SensorSpec& spec = sensor.spec();
  electrochem::ChronoOptions chrono = options.chrono;
  chrono.duration = spec.ca_hold;
  const std::uint64_t sims_before = counts.sims;
  auto ideal = ideal_artifact<electrochem::TimeSeries>(
      sensor, sample, cache, tracer, parent, request, counts, [&] {
        const electrochem::PotentialStep step(
            Potential::volts(0.0), spec.ca_step_potential, spec.ca_hold);
        const electrochem::ChronoamperometrySim sim(
            electrochem::Cell(sensor.layer(), sample, options.hydrodynamics),
            step, chrono);
        return sim.try_run();
      });
  if (!ideal) return ideal.error();
  if (counts.sims != sims_before) {
    const auto steps = static_cast<std::uint64_t>(chrono.duration.seconds() /
                                                  chrono.dt.seconds());
    counts.node_steps += steps * chrono.grid_nodes;
  }
  electrochem::TimeSeries acquired;
  {
    const ScopedSpan span(&tracer, "readout.acquire", parent, request);
    auto chain = autoranged_chain(ideal.value()->current_a,
                                  sensor.layer().blank_noise_rms,
                                  options.smoothing_window);
    if (!chain) return chain.error();
    auto out = chain.value().try_acquire(*ideal.value(), sensor.noise_spec(),
                                         rng);
    if (!out) return out.error();
    acquired = std::move(out).value();
  }
  const ScopedSpan span(&tracer, "analysis.reduce", parent, request);
  return acquired.try_tail_mean_a(0.1);
}

Expected<double> replay_cv(const core::BiosensorModel& sensor,
                           const core::MeasurementOptions& options,
                           const chem::Sample& sample, Rng& rng,
                           engine::SimCache* cache, Tracer& tracer,
                           SpanId parent, std::uint64_t request,
                           ReplayCounts& counts) {
  const core::SensorSpec& spec = sensor.spec();
  auto ideal = ideal_artifact<electrochem::Voltammogram>(
      sensor, sample, cache, tracer, parent, request, counts, [&] {
        const electrochem::CyclicSweep sweep(spec.cv_start, spec.cv_vertex,
                                             spec.cv_scan_rate);
        const electrochem::VoltammetrySim sim(
            electrochem::Cell(sensor.layer(), sample, options.hydrodynamics),
            sweep, options.voltammetry);
        return sim.try_run();
      });
  if (!ideal) return ideal.error();
  electrochem::Voltammogram acquired;
  {
    const ScopedSpan span(&tracer, "readout.acquire", parent, request);
    auto chain = autoranged_chain(ideal.value()->current_a,
                                  sensor.layer().blank_noise_rms,
                                  options.smoothing_window);
    if (!chain) return chain.error();
    auto out = chain.value().try_acquire(*ideal.value(), sensor.noise_spec(),
                                         rng);
    if (!out) return out.error();
    acquired = std::move(out).value();
  }
  const ScopedSpan span(&tracer, "analysis.reduce", parent, request);
  auto peak = analysis::try_find_cathodic_peak(acquired);
  if (!peak) return peak.error();
  return peak.value().has_value() ? peak.value()->height_a : 0.0;
}

Expected<double> replay_fet(const core::BiosensorModel& sensor,
                            const chem::Sample& sample, Rng& rng,
                            engine::SimCache* cache, Tracer& tracer,
                            SpanId parent, std::uint64_t request,
                            ReplayCounts& counts) {
  const core::SensorSpec& spec = sensor.spec();
  const fet::DeviceParams& device = spec.fet.value();
  const Concentration c = sample.concentration_of(spec.target);

  std::shared_ptr<const fet::TransferCurve> curve;
  if (cache != nullptr) {
    engine::CacheKey key;
    {
      const ScopedSpan span(&tracer, "engine.cache_key", parent, request);
      key = sensor.simulation_key(sample);
    }
    const ScopedSpan span(&tracer, "engine.cache_lookup", parent, request);
    curve = cache->find_as<fet::TransferCurve>(key);
    counts.lookups += 1;
    if (curve) counts.hits += 1;
  }

  electrochem::TimeSeries hold;
  double i_op = 0.0;
  {
    const ScopedSpan span(&tracer, "fet.transduce", parent, request);
    if (!curve) {
      curve = std::make_shared<const fet::TransferCurve>(
          device.transfer_curve(c));
    }
    i_op = device.operating_current(c).amps();
    const double dt = 1.0 / device.sample_rate_hz;
    const std::size_t n = std::max<std::size_t>(
        2, static_cast<std::size_t>(
               std::llround(device.hold.seconds() * device.sample_rate_hz)));
    fet::FlickerStack noise(device.noise, device.sample_rate_hz, rng);
    for (std::size_t k = 0; k < n; ++k) {
      hold.push(dt * static_cast<double>(k + 1), i_op + noise.next());
    }
  }

  electrochem::TimeSeries acquired;
  {
    const ScopedSpan span(&tracer, "readout.acquire", parent, request);
    const double fs =
        std::max(1.3 * std::abs(i_op), 20.0 * device.noise.flicker_rms_a);
    auto config = readout::SignalChain::try_for_full_scale(Current::amps(fs));
    if (!config) return config.error();
    readout::ChainConfig cfg = config.value();
    cfg.smoothing_window = fet::kSmoothingWindow;
    auto chain = readout::SignalChain::try_create(std::move(cfg));
    if (!chain) return chain.error();
    readout::NoiseSpec quiet;
    quiet.electrode_lf_rms = Current::amps(0.0);
    quiet.white_density_a_per_sqrt_hz = 0.0;
    quiet.include_shot = false;
    auto out = chain.value().try_acquire(hold, quiet, rng);
    if (!out) return out.error();
    acquired = std::move(out).value();
  }
  const ScopedSpan span(&tracer, "analysis.reduce", parent, request);
  return acquired.try_tail_mean_a(0.1);
}

}  // namespace

Expected<double> replay_response(const core::BiosensorModel& sensor,
                                 const core::MeasurementOptions& options,
                                 const chem::Sample& sample, Rng& rng,
                                 engine::SimCache* cache, Tracer& tracer,
                                 SpanId parent, std::uint64_t request,
                                 ReplayCounts& counts) {
  auto family = family_of(sensor);
  if (!family) return family.error();
  switch (family.value()) {
    case Family::kChrono:
      return replay_chrono(sensor, options, sample, rng, cache, tracer,
                           parent, request, counts);
    case Family::kCv:
      return replay_cv(sensor, options, sample, rng, cache, tracer, parent,
                       request, counts);
    case Family::kFet:
      return replay_fet(sensor, sample, rng, cache, tracer, parent, request,
                        counts);
  }
  return make_error(ErrorCode::kInternal, Layer::kCore, "ledger replay",
                    "unreachable family");
}

double LedgerRow::layers_us() const {
  double sum = 0.0;
  for (double v : layer_us) sum += v;
  return sum;
}

double LedgerRow::unattributed_pct() const {
  return measure_us > 0.0 ? 100.0 * std::abs(unattributed_us()) / measure_us
                          : 0.0;
}

const char* LedgerRow::dominant_layer() const {
  const auto it = std::max_element(layer_us.begin(), layer_us.end());
  return kLedgerLayers[static_cast<std::size_t>(it - layer_us.begin())];
}

namespace {

/// Sums accumulated per family before dividing by the item count.
struct RowSums {
  std::uint64_t samples = 0;  ///< item x round pairs
  double measure_ns = 0.0;
  std::array<double, kLedgerLayers.size()> layer_ns{};

  void fold_into(LedgerRow& row) const {
    if (samples == 0) return;
    const double n = 1e3 * static_cast<double>(samples);
    row.measure_us = measure_ns / n;
    for (std::size_t k = 0; k < layer_ns.size(); ++k) {
      row.layer_us[k] = layer_ns[k] / n;
    }
  }
};

/// The spans of one timed item-round: try_measure, and the replay root
/// whose children are the layer calls.
struct TimedPair {
  SpanId measure = kNoParent;
  SpanId replay = kNoParent;
  Family family = Family::kChrono;
};

}  // namespace

Ledger run_ledger(const std::vector<ReplayItem>& items,
                  const core::MeasurementOptions& options,
                  engine::SimCache* cache, Tracer& tracer,
                  const ReplayOptions& replay) {
  Ledger ledger;
  const auto note_mismatch = [&](const std::string& what) {
    ++ledger.mismatches;
    if (ledger.first_mismatch.empty()) ledger.first_mismatch = what;
  };
  std::vector<Family> families;
  families.reserve(items.size());
  for (const ReplayItem& item : items) {
    auto family = family_of(*item.sensor);
    if (!family) {
      note_mismatch(family.error().describe());
      return ledger;
    }
    families.push_back(family.value());
    ledger.by_family[family.value()].items += 1;
  }
  ledger.all.items = items.size();

  std::vector<TimedPair> pairs;
  std::vector<double> key_probe_ns;
  for (std::size_t round = 0; round < replay.rounds; ++round) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      const ReplayItem& item = items[i];
      Rng measure_rng = item.rng;
      Rng replay_rng = item.rng;
      // Counts come from the first round only, so they describe the
      // fixed subset exactly however many rounds run.
      ReplayCounts scratch;
      ReplayCounts& counts = round == 0 ? ledger.counts : scratch;

      TimedPair pair;
      pair.family = families[i];
      Expected<core::Measurement> measured = core::Measurement{};
      Expected<double> replayed = 0.0;
      const auto run_measure = [&] {
        const ScopedSpan span(&tracer, "core.measure", kNoParent, i);
        pair.measure = span.id();
        measured = item.sensor->try_measure(item.sample, measure_rng, cache);
      };
      const auto run_replay = [&] {
        const ScopedSpan span(&tracer, "core.replay", kNoParent, i);
        pair.replay = span.id();
        replayed = replay_response(*item.sensor, options, item.sample,
                                   replay_rng, cache, tracer, span.id(), i,
                                   counts);
      };
      // Alternate the order so neither side always runs on warm caches.
      if ((round + i) % 2 == 0) {
        run_measure();
        run_replay();
      } else {
        run_replay();
        run_measure();
      }
      if (cache == nullptr) {
        // The keying cost is reported even when the path skips it.
        const std::int64_t t0 = Tracer::now_ns();
        const engine::CacheKey key = item.sensor->simulation_key(item.sample);
        key_probe_ns.push_back(static_cast<double>(Tracer::now_ns() - t0));
        (void)key;
      }

      if (!measured || !replayed) {
        note_mismatch(!measured ? measured.error().describe()
                                : replayed.error().describe());
        continue;
      }
      double replayed_a = replayed.value();
      if (replay.inject_fault && round == 0 && i == 0) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &replayed_a, sizeof(bits));
        bits ^= 1u;
        std::memcpy(&replayed_a, &bits, sizeof(bits));
      }
      const double measured_a = measured.value().response_a;
      if (!same_bits(replayed_a, measured_a) ||
          !same_bits(measured_a, item.reported_response_a) ||
          !same_bits(measure_rng.uniform(), replay_rng.uniform())) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "replay of item %zu (%s) differs: replay %.17g, "
                      "try_measure %.17g, workload %.17g",
                      i, item.sensor->spec().name.c_str(), replayed_a,
                      measured_a, item.reported_response_a);
        note_mismatch(buf);
      }
      if (round > 0 || replay.rounds == 1) pairs.push_back(pair);
    }
  }

  // Aggregate the timed rounds: try_measure's duration, and the replay
  // root's children by layer name (each child's self time is its whole
  // duration: layer calls open no spans of their own).
  const std::vector<Span> spans = tracer.spans();
  std::unordered_map<SpanId, std::size_t> root_of;  // replay id -> pair
  for (std::size_t p = 0; p < pairs.size(); ++p) root_of[pairs[p].replay] = p;
  std::vector<std::array<double, kLedgerLayers.size()>> child_ns(pairs.size());
  for (const Span& s : spans) {
    const auto it = root_of.find(s.parent);
    if (s.parent == kNoParent || it == root_of.end()) continue;
    for (std::size_t k = 0; k < kLedgerLayers.size(); ++k) {
      if (std::strcmp(s.name, kLedgerLayers[k]) == 0) {
        child_ns[it->second][k] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
  }
  RowSums all;
  std::map<Family, RowSums> by_family;
  const auto duration = [&](SpanId id) {
    const Span& s = spans[static_cast<std::size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns);
  };
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const double measure_ns = duration(pairs[p].measure);
    for (RowSums* sums : {&all, &by_family[pairs[p].family]}) {
      sums->samples += 1;
      sums->measure_ns += measure_ns;
      for (std::size_t k = 0; k < kLedgerLayers.size(); ++k) {
        sums->layer_ns[k] += child_ns[p][k];
      }
    }
  }
  all.fold_into(ledger.all);
  for (auto& [family, sums] : by_family) {
    sums.fold_into(ledger.by_family[family]);
  }
  ledger.key_probe_us = cache == nullptr ? mean(key_probe_ns) / 1e3
                                         : ledger.all.layer_us[0];
  return ledger;
}

}  // namespace e2e
