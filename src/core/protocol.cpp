#include "core/protocol.hpp"

#include <cmath>
#include <utility>

#include "chem/solution.hpp"
#include "common/error.hpp"
#include "obs/span.hpp"

#include "common/math.hpp"

namespace biosens::core {

CalibrationProtocol::CalibrationProtocol(ProtocolOptions options)
    : options_(options) {
  require<SpecError>(options.blank_repeats >= 2,
                     "need at least two blanks for sigma_blank");
  require<SpecError>(options.replicates >= 1,
                     "need at least one replicate");
}

std::vector<Concentration> CalibrationProtocol::linear_series(
    Concentration low, Concentration high, std::size_t levels) {
  const std::vector<double> grid =
      linspace(low.milli_molar(), high.milli_molar(), levels);
  std::vector<Concentration> out;
  out.reserve(grid.size());
  for (double c : grid) out.push_back(Concentration::milli_molar(c));
  return out;
}

Expected<ProtocolOutcome> CalibrationProtocol::try_run(
    const BiosensorModel& sensor, std::span<const Concentration> series,
    Rng& rng, engine::SimCache* cache) const {
  obs::ObsSpan span(Layer::kCore, "calibration-protocol",
                    sensor.spec().name);
  const std::string frame = "calibration protocol";
  BIOSENS_EXPECT(series.size() >= 3, ErrorCode::kSpec, Layer::kCore, frame,
                 "calibration series needs at least three levels");

  ProtocolOutcome outcome;
  outcome.blank_responses_a.reserve(options_.blank_repeats);
  const chem::Sample blank = chem::blank_sample();
  for (std::size_t i = 0; i < options_.blank_repeats; ++i) {
    auto m = sensor.try_measure(blank, rng, cache);
    if (!m) return ctx(frame, Expected<ProtocolOutcome>(m.error()));
    outcome.blank_responses_a.push_back(m.value().response_a);
  }
  const double sigma = analysis::blank_sigma(outcome.blank_responses_a);

  outcome.points.reserve(series.size());
  for (const Concentration& level : series) {
    double sum = 0.0;
    for (std::size_t r = 0; r < options_.replicates; ++r) {
      const chem::Sample s =
          chem::calibration_sample(sensor.spec().target, level);
      auto m = sensor.try_measure(s, rng, cache);
      if (!m) return ctx(frame, Expected<ProtocolOutcome>(m.error()));
      sum += m.value().response_a;
    }
    outcome.points.push_back(
        {level, sum / static_cast<double>(options_.replicates)});
  }

  const analysis::CalibrationEngine engine(options_.calibration);
  const double point_sigma =
      sigma / std::sqrt(static_cast<double>(options_.replicates));
  auto result = engine.try_calibrate(outcome.points, sigma,
                                     sensor.electrode_area(), point_sigma);
  if (!result) return ctx(frame, Expected<ProtocolOutcome>(result.error()));
  outcome.result = std::move(result).value();
  return outcome;
}

}  // namespace biosens::core
