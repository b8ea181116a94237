// Calibration-curve analysis: from (concentration, response) points to the
// paper's three figures of merit.
//
//  - sensitivity: slope of the linear region, normalized by electrode
//    area [uA mM^-1 cm^-2] — Table 2 column 2;
//  - linear range: the concentration span over which the response stays
//    within a relative tolerance of the straight line — column 3;
//  - limit of detection: 3 sigma_blank / slope (IUPAC) — column 4.
#pragma once

#include <span>
#include <vector>

#include "common/expected.hpp"
#include "common/regression.hpp"
#include "common/units.hpp"

namespace biosens::analysis {

/// One calibration measurement.
struct CalibrationPoint {
  Concentration concentration;
  double response_a = 0.0;  ///< steady-state current or CV peak height [A]
};

/// Tunables of the linear-region search.
struct CalibrationOptions {
  /// Maximum relative deviation of a point from the running fit before
  /// the linear region is declared over (conventional 5%).
  double linearity_tolerance = 0.05;
  /// Points used for the seed fit at the low end.
  std::size_t seed_points = 3;
};

/// Output of a calibration run.
struct CalibrationResult {
  LinearFit fit;  ///< response [A] vs concentration [mM], linear region
  Sensitivity sensitivity;        ///< slope / electrode area
  Concentration linear_range_low;
  Concentration linear_range_high;
  Concentration lod;  ///< 3 sigma_blank / slope
  Concentration loq;  ///< 10 sigma_blank / slope
  double blank_sigma_a = 0.0;
  std::size_t points_in_linear_region = 0;
  /// True when the data left the linear region within the measured span
  /// (i.e. the reported range top is a real saturation onset, not just
  /// the last point measured).
  bool saturation_observed = false;
};

/// The calibration engine.
class CalibrationEngine {
 public:
  explicit CalibrationEngine(CalibrationOptions options = {});

  /// Fits the linear region and extracts the figures of merit.
  ///
  /// `points` need not be sorted; at least seed_points + blank are
  /// required. `blank_sigma_a` is the standard deviation of repeated
  /// blank responses (drives LOD). `electrode_area` normalizes the
  /// sensitivity.
  ///
  /// Algorithm: sort by concentration, seed an OLS fit on the lowest
  /// `seed_points` points, then extend point-by-point while each next
  /// point deviates from the running fit's prediction by less than
  /// tolerance * |prediction| + 2 * point_sigma_a (the additive term
  /// keeps measurement noise from truncating the detected range early).
  /// `point_sigma_a` is the noise of one calibration *point* (blank
  /// sigma divided by sqrt(replicates)); pass a negative value to
  /// default it to `blank_sigma_a`.
  ///
  /// Too few points, seed points at a single concentration, and a
  /// non-responding sensor (non-positive slope) come back as analysis-
  /// layer errors.
  [[nodiscard]] Expected<CalibrationResult> try_calibrate(
      std::span<const CalibrationPoint> points, double blank_sigma_a,
      Area electrode_area, double point_sigma_a = -1.0) const;

  [[nodiscard]] const CalibrationOptions& options() const { return options_; }

 private:
  CalibrationOptions options_;
};

/// Standard deviation of repeated blank responses.
[[nodiscard]] double blank_sigma(std::span<const double> blank_responses_a);

}  // namespace biosens::analysis
