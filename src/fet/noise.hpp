// Readout noise of the field-effect backend.
//
// FET channels are dominated by low-frequency 1/f (flicker) noise —
// carrier-number fluctuations from trapping/detrapping at the
// channel-dielectric interface (Hooge's relation) — with a thermal
// (Johnson) floor of the channel conductance and a slow fouling drift.
// The 1/f spectrum is synthesized as a sum of equal-variance
// Ornstein-Uhlenbeck octave bands: each octave contributes the same
// power, which is exactly the 1/f signature, and each band stays an
// exact, cheap, deterministically seeded recursion under biosens::Rng.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace biosens::fet {

/// Configuration of the additive drain-current noise.
struct NoiseParams {
  /// Total stationary rms of the 1/f (flicker) stack [A]. This is the
  /// design knob the catalog solver tunes so the measured blank sigma
  /// reproduces a published LOD.
  double flicker_rms_a = 1.0e-8;
  /// Slowest octave's correlation time [s]; long against one hold so
  /// the flicker floor does not average down within a measurement.
  double slowest_tau_s = 40.0;
  /// Number of equal-variance octave bands below the corner.
  std::size_t octaves = 6;
  /// Thermal/white density of channel + amplifier [A/sqrt(Hz)].
  double white_density_a_per_sqrt_hz = 5.0e-12;
  /// Random-walk drift density [A/sqrt(s)] (fouling, bias instability).
  double drift_a_per_sqrt_s = 0.0;
};

/// Stateful per-measurement noise generator. Deterministic: the sample
/// stream is a pure function of (params, sample_rate, rng state at
/// construction).
class FlickerStack {
 public:
  FlickerStack(const NoiseParams& params, double sample_rate_hz, Rng& rng);

  /// Next additive noise sample [A]. Draws octaves + white from the rng
  /// handed to the constructor.
  [[nodiscard]] double next();

 private:
  NoiseParams params_;
  double dt_s_;
  Rng& rng_;
  std::vector<double> band_state_a_;  ///< per-octave OU state
  std::vector<double> band_decay_;    ///< per-octave exp(-dt/tau)
  std::vector<double> band_kick_a_;   ///< per-octave innovation sigma
  double white_sigma_a_ = 0.0;
  double drift_a_ = 0.0;
  double drift_step_a_ = 0.0;
};

}  // namespace biosens::fet
