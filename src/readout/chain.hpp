// The composable acquisition chain: input-referred noise injection ->
// transimpedance amplification (band-limit + rails) -> ADC quantization
// -> digital smoothing -> reconstructed current.
//
// This is the "electrical component" of the paper's platform, kept
// strictly separate from the chemical component: the chain knows nothing
// about enzymes — it consumes ideal current traces from the
// electrochemical simulators and a NoiseSpec derived from the electrode.
#pragma once

#include "common/rng.hpp"
#include "common/units.hpp"
#include "electrochem/trace.hpp"
#include "readout/adc.hpp"
#include "readout/filter.hpp"
#include "readout/noise.hpp"
#include "readout/tia.hpp"

namespace biosens::readout {

/// Configuration of one acquisition channel.
struct ChainConfig {
  TransimpedanceAmplifier tia = default_tia();
  Adc adc = default_adc();
  /// Boxcar window applied to the digitized samples (1 = off).
  std::size_t smoothing_window = 5;
};

/// One acquisition channel.
class SignalChain {
 public:
  /// Validates the configuration and builds the chain; a readout-layer
  /// spec error for a degenerate smoothing window.
  [[nodiscard]] static Expected<SignalChain> try_create(ChainConfig config);

  /// Digitizes a current-vs-time trace. The ideal currents are corrupted
  /// with the given noise, amplified, band-limited, quantized, smoothed,
  /// and referred back to the input as reconstructed currents. Short,
  /// non-uniform, or desynchronized traces come back as readout-layer
  /// analysis errors.
  [[nodiscard]] Expected<electrochem::TimeSeries> try_acquire(
      const electrochem::TimeSeries& ideal, const NoiseSpec& noise,
      Rng& rng) const;

  /// Digitizes a voltammogram (per-point, no band-limiting — sweeps are
  /// slow relative to the chain bandwidth).
  [[nodiscard]] Expected<electrochem::Voltammogram> try_acquire(
      const electrochem::Voltammogram& ideal, const NoiseSpec& noise,
      Rng& rng) const;

  /// Analytic input-referred rms of one *measurement-level* reading
  /// (low-frequency electrode noise, which does not average down, plus
  /// the white residue after smoothing).
  [[nodiscard]] double measurement_noise_rms_a(const NoiseSpec& noise,
                                               Frequency sample_rate) const;

  [[nodiscard]] const ChainConfig& config() const { return config_; }

  /// Picks a decade transimpedance gain (10 kohm .. 100 Mohm) such that
  /// `max_expected` lands near 60% of full scale, with default ADC; a
  /// readout-layer spec error unless `max_expected` is positive.
  [[nodiscard]] static Expected<ChainConfig> try_for_full_scale(
      Current max_expected);

 private:
  struct Unchecked {};
  SignalChain(ChainConfig config, Unchecked) : config_(std::move(config)) {}

  ChainConfig config_;
};

}  // namespace biosens::readout
