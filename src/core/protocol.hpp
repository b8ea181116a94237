// CalibrationProtocol: the experimental procedure of Section 3.2.
//
// A concentration series is measured (with replicates), repeated blanks
// establish sigma_blank, and the analysis engine reduces everything to the
// three figures of merit of Table 2. The protocol is sensor-agnostic: it
// only talks to BiosensorModel::measure.
#pragma once

#include <span>
#include <vector>

#include "analysis/calibration.hpp"
#include "common/expected.hpp"
#include "common/rng.hpp"
#include "core/sensor.hpp"

namespace biosens::core {

/// Protocol knobs.
struct ProtocolOptions {
  std::size_t blank_repeats = 12;  ///< blanks measured for sigma_blank
  std::size_t replicates = 3;      ///< measurements averaged per level
  analysis::CalibrationOptions calibration{};
};

/// Everything a calibration run produces.
struct ProtocolOutcome {
  analysis::CalibrationResult result;
  std::vector<analysis::CalibrationPoint> points;  ///< mean per level
  std::vector<double> blank_responses_a;
};

/// Runs calibration protocols against a sensor.
class CalibrationProtocol {
 public:
  explicit CalibrationProtocol(ProtocolOptions options = {});

  /// Measures the series (plus blanks) and calibrates. A malformed
  /// series, a measurement failure on any blank or level, or a
  /// calibration-fit rejection comes back as a structured error with a
  /// "calibration protocol" context frame. `cache` memoizes only
  /// deterministic pre-noise stages, so each distinct sample (the blank,
  /// each level) simulates once; results are byte-identical with or
  /// without one. Null means no cache.
  [[nodiscard]] Expected<ProtocolOutcome> try_run(
      const BiosensorModel& sensor, std::span<const Concentration> series,
      Rng& rng, engine::SimCache* cache = nullptr) const;

  /// Convenience: evenly spaced `levels` concentrations from `low` to
  /// `high` (inclusive), the usual successive-addition series.
  [[nodiscard]] static std::vector<Concentration> linear_series(
      Concentration low, Concentration high, std::size_t levels);

  [[nodiscard]] const ProtocolOptions& options() const { return options_; }

 private:
  ProtocolOptions options_;
};

}  // namespace biosens::core
