#include "readout/tia.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/constants.hpp"
#include "common/error.hpp"

namespace biosens::readout {

TransimpedanceAmplifier::TransimpedanceAmplifier(Resistance feedback,
                                                 Frequency bandwidth,
                                                 Potential rail)
    : feedback_(feedback), bandwidth_(bandwidth), rail_(rail) {
  require<SpecError>(feedback.ohms() > 0.0, "feedback must be positive");
  require<SpecError>(bandwidth.hertz() > 0.0, "bandwidth must be positive");
  require<SpecError>(rail.volts() > 0.0, "rail must be positive");
}

Potential TransimpedanceAmplifier::output(Current input) const {
  const double v = input.amps() * feedback_.ohms();
  return Potential::volts(std::clamp(v, -rail_.volts(), rail_.volts()));
}

Potential TransimpedanceAmplifier::filtered_output(Current input, Time dt) {
  require<NumericsError>(dt.seconds() > 0.0, "dt must be positive");
  const double target = output(input).volts();
  const double alpha =
      1.0 - std::exp(-2.0 * std::numbers::pi * bandwidth_.hertz() *
                     dt.seconds());
  state_v_ += alpha * (target - state_v_);
  return Potential::volts(state_v_);
}

void TransimpedanceAmplifier::reset() { state_v_ = 0.0; }

Current TransimpedanceAmplifier::full_scale() const {
  return Current::amps(rail_.volts() / feedback_.ohms());
}

double TransimpedanceAmplifier::johnson_noise_density() const {
  return std::sqrt(4.0 * constants::kBoltzmann *
                   constants::kRoomTemperatureK / feedback_.ohms());
}

TransimpedanceAmplifier default_tia() {
  return TransimpedanceAmplifier(Resistance::mega_ohms(1.0),
                                 Frequency::kilo_hertz(1.0),
                                 Potential::volts(1.2));
}

}  // namespace biosens::readout
