#include "fet/noise.hpp"

#include <algorithm>
#include <cmath>

namespace biosens::fet {

FlickerStack::FlickerStack(const NoiseParams& params, double sample_rate_hz,
                           Rng& rng)
    : params_(params),
      dt_s_(1.0 / std::max(sample_rate_hz, 1e-9)),
      rng_(rng) {
  const std::size_t n = std::max<std::size_t>(params_.octaves, 1);
  const double band_rms = params_.flicker_rms_a / std::sqrt(
                              static_cast<double>(n));
  band_state_a_.resize(n);
  band_decay_.resize(n);
  band_kick_a_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    // Octave k is 2x faster than octave k-1; the slowest spans the hold.
    const double tau =
        std::max(params_.slowest_tau_s / std::pow(2.0, double(k)), 1e-6);
    const double decay = std::exp(-dt_s_ / tau);
    band_decay_[k] = decay;
    band_kick_a_[k] = band_rms * std::sqrt(
                          std::max(0.0, 1.0 - decay * decay));
    // Start every band in its stationary distribution so the first
    // sample already carries the full flicker floor.
    band_state_a_[k] = rng_.normal(0.0, band_rms);
  }
  // White density integrated over the Nyquist band of the hold sampling.
  white_sigma_a_ =
      params_.white_density_a_per_sqrt_hz * std::sqrt(0.5 / dt_s_);
  drift_step_a_ = params_.drift_a_per_sqrt_s * std::sqrt(dt_s_);
}

double FlickerStack::next() {
  double sum = 0.0;
  for (std::size_t k = 0; k < band_state_a_.size(); ++k) {
    band_state_a_[k] = band_state_a_[k] * band_decay_[k] +
                       band_kick_a_[k] * rng_.normal();
    sum += band_state_a_[k];
  }
  drift_a_ += drift_step_a_ * rng_.normal();
  return sum + drift_a_ + white_sigma_a_ * rng_.normal();
}

}  // namespace biosens::fet
