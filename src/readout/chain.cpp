#include "readout/chain.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/span.hpp"

namespace biosens::readout {

Expected<SignalChain> SignalChain::try_create(ChainConfig config) {
  BIOSENS_EXPECT(config.smoothing_window >= 1, ErrorCode::kSpec,
                 Layer::kReadout, "chain config",
                 "smoothing window must be >= 1");
  return SignalChain(std::move(config), Unchecked{});
}

Expected<electrochem::TimeSeries> SignalChain::try_acquire(
    const electrochem::TimeSeries& ideal, const NoiseSpec& noise,
    Rng& rng) const {
  obs::ObsSpan span(Layer::kReadout, "acquire-trace");
  if (auto v = span.watch(ideal.try_validate()); !v) {
    return ctx("acquire", Expected<electrochem::TimeSeries>(v.error()));
  }
  BIOSENS_EXPECT(ideal.size() >= 2, ErrorCode::kAnalysis, Layer::kReadout,
                 "acquire", "trace too short to acquire");
  const double dt = ideal.time_s[1] - ideal.time_s[0];
  BIOSENS_EXPECT(dt > 0.0, ErrorCode::kAnalysis, Layer::kReadout, "acquire",
                 "trace must be uniformly sampled");
  const Frequency fs = Frequency::hertz(1.0 / dt);

  NoiseGenerator gen(noise, fs, rng.split());
  TransimpedanceAmplifier tia = config_.tia;  // local copy carries state
  tia.reset();
  MovingAverage smooth(config_.smoothing_window);

  electrochem::TimeSeries out;
  out.time_s = ideal.time_s;
  out.current_a.reserve(ideal.size());
  const double gain = config_.tia.feedback().ohms();

  for (std::size_t i = 0; i < ideal.size(); ++i) {
    const Current ideal_i = Current::amps(ideal.current_a[i]);
    const Current noisy = ideal_i + gen.next(ideal_i);
    const Potential v = tia.filtered_output(noisy, Time::seconds(dt));
    const Potential q = config_.adc.quantize(v);
    out.current_a.push_back(smooth.push(q.volts() / gain));
  }
  return out;
}

Expected<electrochem::Voltammogram> SignalChain::try_acquire(
    const electrochem::Voltammogram& ideal, const NoiseSpec& noise,
    Rng& rng) const {
  obs::ObsSpan span(Layer::kReadout, "acquire-voltammogram");
  if (auto v = span.watch(ideal.try_validate()); !v) {
    return ctx("acquire", Expected<electrochem::Voltammogram>(v.error()));
  }
  BIOSENS_EXPECT(ideal.size() >= 2, ErrorCode::kAnalysis, Layer::kReadout,
                 "acquire", "voltammogram too short to acquire");
  // Sweeps are slow; treat each point as settled (no band-limit state).
  NoiseGenerator gen(noise, Frequency::hertz(100.0), rng.split());
  MovingAverage smooth(config_.smoothing_window);

  electrochem::Voltammogram out;
  out.potential_v = ideal.potential_v;
  out.turning_index = ideal.turning_index;
  out.current_a.reserve(ideal.size());
  const double gain = config_.tia.feedback().ohms();

  for (std::size_t i = 0; i < ideal.size(); ++i) {
    const Current ideal_i = Current::amps(ideal.current_a[i]);
    const Current noisy = ideal_i + gen.next(ideal_i);
    const Potential v = config_.tia.output(noisy);
    const Potential q = config_.adc.quantize(v);
    out.current_a.push_back(smooth.push(q.volts() / gain));
  }
  return out;
}

double SignalChain::measurement_noise_rms_a(const NoiseSpec& noise,
                                            Frequency sample_rate) const {
  NoiseGenerator probe(noise, sample_rate, Rng(0));
  const double lf = noise.electrode_lf_rms.amps();
  const double white =
      probe.white_rms_a() /
      std::sqrt(static_cast<double>(config_.smoothing_window));
  const double lsb_current =
      config_.adc.lsb().volts() / config_.tia.feedback().ohms();
  const double quant = lsb_current / std::sqrt(12.0);
  return std::sqrt(lf * lf + white * white + quant * quant);
}

Expected<ChainConfig> SignalChain::try_for_full_scale(Current max_expected) {
  BIOSENS_EXPECT(max_expected.amps() > 0.0, ErrorCode::kSpec,
                 Layer::kReadout, "autorange",
                 "expected maximum must be positive");
  const Potential rail = Potential::volts(1.2);
  // Decade gains from 10 kohm to 100 Mohm; choose the largest gain whose
  // full scale still leaves 40% headroom above the expected maximum.
  const double gains[] = {1e4, 1e5, 1e6, 1e7, 1e8};
  double chosen = gains[0];
  for (double g : gains) {
    if (max_expected.amps() * g <= 0.6 * rail.volts()) chosen = g;
  }
  ChainConfig cfg;
  cfg.tia = TransimpedanceAmplifier(Resistance::ohms(chosen),
                                    Frequency::kilo_hertz(1.0), rail);
  cfg.adc = default_adc();
  cfg.smoothing_window = 5;
  return cfg;
}

}  // namespace biosens::readout
