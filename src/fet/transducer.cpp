#include "fet/transducer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "obs/span.hpp"
#include "readout/chain.hpp"

namespace biosens::fet {

FetTransducer::FetTransducer(DeviceParams params, std::string name,
                             std::string target)
    : params_(std::move(params)),
      name_(std::move(name)),
      target_(std::move(target)) {
  require<SpecError>(!target_.empty(), "fet transducer needs a target");
  params_.try_validate().value();
}

readout::NoiseSpec FetTransducer::noise_spec() const {
  // The channel noise is generated by FlickerStack at the drain, not by
  // the acquisition chain; this spec describes it for introspection
  // (QC, docs) in the units the platform expects.
  readout::NoiseSpec spec;
  spec.electrode_lf_rms = Current::amps(params_.noise.flicker_rms_a);
  spec.lf_correlation = Time::seconds(params_.noise.slowest_tau_s);
  spec.white_density_a_per_sqrt_hz =
      params_.noise.white_density_a_per_sqrt_hz;
  spec.include_shot = false;
  return spec;
}

Time FetTransducer::measurement_time() const {
  // Gate sweep (20 ms dwell per point, a realistic settling time for a
  // liquid gate) followed by the fixed-bias hold.
  return Time::seconds(0.02 * static_cast<double>(params_.sweep.points) +
                       params_.hold.seconds());
}

engine::CacheKey FetTransducer::simulation_key(
    const chem::Sample& sample) const {
  engine::CacheKey key;
  // Domain tag first: FET keys live in their own namespace and can never
  // collide with amperometric keys in a shared cache.
  key.add(std::string_view("fet/v1"));
  key.add(std::string_view(name_));
  key.add(std::string_view(target_));

  // Every device parameter the deterministic transfer-curve stage reads.
  key.add(static_cast<std::int64_t>(params_.channel));
  key.add(params_.channel_area.square_meters());
  key.add(params_.receptor_density_per_m2);
  key.add(params_.charge_per_binding_e);
  key.add(params_.gate_capacitance_f_per_m2);
  key.add(params_.k_d.milli_molar());
  key.add(params_.g_min_s);
  key.add(params_.g_scale);
  key.add(params_.v_characteristic.volts());
  key.add(params_.v_smooth.volts());
  key.add(params_.v_ds.volts());
  key.add(params_.v_gate_operating.volts());
  key.add(params_.sweep.start.volts());
  key.add(params_.sweep.end.volts());
  key.add(static_cast<std::uint64_t>(params_.sweep.points));

  // The only sample input the physics reads: the target concentration.
  key.add(sample.concentration_of(target_).molar());
  return key;
}

Expected<core::Measurement> FetTransducer::try_transduce(
    const chem::Sample& sample, Rng& rng, engine::SimCache* cache) const {
  obs::ObsSpan span(Layer::kFet, "transduce", name_);
  const Concentration c = sample.concentration_of(target_);

  core::Measurement m;
  m.technique = core::Technique::kFieldEffectTransfer;

  // The cache memoizes only the deterministic transfer curve; the noisy
  // hold below always consumes `rng` the same way, so the Measurement is
  // byte-identical whether a key hits, misses, or no cache exists.
  // Failures return unwrapped — the caller adds the one context frame.
  std::shared_ptr<const TransferCurve> sweep;
  if (cache != nullptr) {
    const engine::CacheKey key = simulation_key(sample);
    sweep = cache->find_as<TransferCurve>(key);
    if (!sweep) {
      sweep = cache->put<TransferCurve>(key, params_.transfer_curve(c));
    }
  } else {
    sweep = std::make_shared<const TransferCurve>(params_.transfer_curve(c));
  }
  m.transfer = *sweep;

  // Fixed-bias hold: constant ideal drain current plus the channel's
  // 1/f + thermal noise, then the shared acquisition chain (TIA gain,
  // ADC quantization, boxcar) and the chronoamperometric tail reduction.
  const double i_op = params_.operating_current(c).amps();
  const double dt = 1.0 / params_.sample_rate_hz;
  const std::size_t n = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::llround(params_.hold.seconds() * params_.sample_rate_hz)));
  FlickerStack noise(params_.noise, params_.sample_rate_hz, rng);
  electrochem::TimeSeries hold;
  for (std::size_t k = 0; k < n; ++k) {
    hold.push(dt * static_cast<double>(k + 1), i_op + noise.next());
  }

  const double fs = std::max(1.3 * std::abs(i_op),
                             20.0 * params_.noise.flicker_rms_a);
  auto config = readout::SignalChain::try_for_full_scale(Current::amps(fs));
  if (!config) return span.watch(Expected<core::Measurement>(config.error()));
  readout::ChainConfig cfg = config.value();
  cfg.smoothing_window = kSmoothingWindow;
  auto chain = readout::SignalChain::try_create(std::move(cfg));
  if (!chain) return span.watch(Expected<core::Measurement>(chain.error()));

  // Channel noise is already in the trace; the chain adds none.
  readout::NoiseSpec quiet;
  quiet.electrode_lf_rms = Current::amps(0.0);
  quiet.white_density_a_per_sqrt_hz = 0.0;
  quiet.include_shot = false;
  auto acquired = chain.value().try_acquire(hold, quiet, rng);
  if (!acquired) {
    return span.watch(Expected<core::Measurement>(acquired.error()));
  }
  m.trace = std::move(acquired).value();
  auto tail = m.trace.try_tail_mean_a(0.1);
  if (!tail) return span.watch(Expected<core::Measurement>(tail.error()));
  m.response_a = tail.value();
  return m;
}

double FetTransducer::ideal_response_a(const chem::Sample& sample) const {
  return params_.operating_current(sample.concentration_of(target_)).amps();
}

std::shared_ptr<const core::Transducer> make_transducer(DeviceParams params,
                                                        std::string name,
                                                        std::string target) {
  return std::make_shared<const FetTransducer>(
      std::move(params), std::move(name), std::move(target));
}

}  // namespace biosens::fet
