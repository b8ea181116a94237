// Transimpedance amplifier (TIA): the analog front end.
//
// Electrochemical currents are nA-uA; the CMOS front end converts them to
// a voltage with a feedback resistor, band-limits them with a single-pole
// response, and clips at the supply rails (Section 2.5 of the paper: the
// analog readout sits next to the transducer precisely because these
// signals are weak and noisy).
#pragma once

#include "common/units.hpp"

namespace biosens::readout {

/// Single-stage transimpedance amplifier model.
class TransimpedanceAmplifier {
 public:
  /// @param feedback     transimpedance gain (V = I * R_f)
  /// @param bandwidth    -3 dB corner of the single-pole response
  /// @param rail         output saturation (+/- rail)
  TransimpedanceAmplifier(Resistance feedback, Frequency bandwidth,
                          Potential rail);

  /// Output voltage for an input current, including rail clipping (the
  /// single-pole dynamics are applied sample-wise by `filter_state`).
  [[nodiscard]] Potential output(Current input) const;

  /// One sample of the single-pole low-pass response: advances the
  /// internal state by dt toward the instantaneous output.
  [[nodiscard]] Potential filtered_output(Current input, Time dt);

  /// Resets the low-pass state (new measurement).
  void reset();

  /// Largest current representable before the rail clips.
  [[nodiscard]] Current full_scale() const;

  /// Johnson (thermal) current-noise density of the feedback resistor:
  /// sqrt(4 k T / R_f)  [A/sqrt(Hz)].
  [[nodiscard]] double johnson_noise_density() const;

  [[nodiscard]] Resistance feedback() const { return feedback_; }
  [[nodiscard]] Frequency bandwidth() const { return bandwidth_; }
  [[nodiscard]] Potential rail() const { return rail_; }

 private:
  Resistance feedback_;
  Frequency bandwidth_;
  Potential rail_;
  double state_v_ = 0.0;
};

/// Default front end used by the platform: 1 Mohm, 1 kHz, +/-1.2 V rails
/// (a realistic 0.18 um CMOS potentiostat operating point).
[[nodiscard]] TransimpedanceAmplifier default_tia();

}  // namespace biosens::readout
