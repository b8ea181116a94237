#include "analysis/calibration.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/span.hpp"

namespace biosens::analysis {

double blank_sigma(std::span<const double> blank_responses_a) {
  require<AnalysisError>(blank_responses_a.size() >= 2,
                         "need at least two blank responses");
  return sample_stddev(blank_responses_a);
}

CalibrationEngine::CalibrationEngine(CalibrationOptions options)
    : options_(options) {
  require<SpecError>(options.linearity_tolerance > 0.0 &&
                         options.linearity_tolerance < 1.0,
                     "linearity tolerance must be in (0, 1)");
  require<SpecError>(options.seed_points >= 2, "need at least 2 seed points");
}

Expected<CalibrationResult> CalibrationEngine::try_calibrate(
    std::span<const CalibrationPoint> points, double blank_sigma_a,
    Area electrode_area, double point_sigma_a) const {
  const obs::ObsSpan span(Layer::kAnalysis, "calibration-fit");
  BIOSENS_EXPECT(points.size() >= options_.seed_points, ErrorCode::kAnalysis,
                 Layer::kAnalysis, "calibrate",
                 "not enough calibration points");
  BIOSENS_EXPECT(blank_sigma_a >= 0.0, ErrorCode::kAnalysis,
                 Layer::kAnalysis, "calibrate",
                 "blank sigma must be non-negative");
  if (point_sigma_a < 0.0) point_sigma_a = blank_sigma_a;
  BIOSENS_EXPECT(electrode_area.square_meters() > 0.0, ErrorCode::kAnalysis,
                 Layer::kAnalysis, "calibrate",
                 "electrode area must be positive");

  std::vector<CalibrationPoint> sorted(points.begin(), points.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const CalibrationPoint& a, const CalibrationPoint& b) {
              return a.concentration < b.concentration;
            });
  // Sorted, so the seed spans one concentration exactly when its ends
  // coincide; no line can be fitted through it.
  BIOSENS_EXPECT(sorted.front().concentration !=
                     sorted[options_.seed_points - 1].concentration,
                 ErrorCode::kAnalysis, Layer::kAnalysis, "calibrate",
                 "seed points sit at a single concentration");

  std::vector<double> xs, ys;
  xs.reserve(sorted.size());
  ys.reserve(sorted.size());
  for (std::size_t i = 0; i < options_.seed_points; ++i) {
    xs.push_back(sorted[i].concentration.milli_molar());
    ys.push_back(sorted[i].response_a);
  }
  LinearFit fit = fit_ols(xs, ys);

  // A point is out of tolerance when it deviates from the running fit by
  // more than a curvature budget (relative share of the prediction) plus
  // an additive noise allowance. The allowance covers both the point's
  // own noise and the *prediction* uncertainty of the running fit —
  // extrapolating a short noisy seed fit has leverage, and ignoring it
  // truncates ranges spuriously.
  const auto out_of_tolerance = [&](const LinearFit& f,
                                    const CalibrationPoint& p) {
    const double x = p.concentration.milli_molar();
    const double predicted = f.predict(x);
    double xbar = 0.0;
    for (double v : xs) xbar += v;
    xbar /= static_cast<double>(xs.size());
    double sxx = 0.0;
    for (double v : xs) sxx += (v - xbar) * (v - xbar);
    const double leverage =
        1.0 / static_cast<double>(xs.size()) +
        (sxx > 0.0 ? (x - xbar) * (x - xbar) / sxx : 0.0);
    const double deviation_sigma =
        point_sigma_a * std::sqrt(1.0 + leverage);
    const double allowance =
        options_.linearity_tolerance * std::abs(predicted) +
        2.0 * deviation_sigma;
    return std::abs(p.response_a - predicted) > allowance;
  };

  bool saturated = false;
  std::size_t used = options_.seed_points;
  for (std::size_t i = options_.seed_points; i < sorted.size(); ++i) {
    if (out_of_tolerance(fit, sorted[i])) {
      // Saturation is declared only on two consecutive out-of-tolerance
      // points (or a failure at the last point) — a single excursion is
      // indistinguishable from measurement noise and must not truncate
      // the detected range.
      if (i + 1 >= sorted.size() || out_of_tolerance(fit, sorted[i + 1])) {
        saturated = true;
        break;
      }
    }
    xs.push_back(sorted[i].concentration.milli_molar());
    ys.push_back(sorted[i].response_a);
    fit = fit_ols(xs, ys);
    used = i + 1;
  }

  CalibrationResult result;
  result.fit = fit;
  result.points_in_linear_region = used;
  result.saturation_observed = saturated;
  result.blank_sigma_a = blank_sigma_a;
  result.linear_range_low = sorted.front().concentration;
  result.linear_range_high = sorted[used - 1].concentration;

  BIOSENS_EXPECT(fit.slope > 0.0, ErrorCode::kAnalysis, Layer::kAnalysis,
                 "calibrate",
                 "calibration slope is not positive; sensor is not "
                 "responding to the analyte");
  // Slope is A per mM; divide by area for the areal sensitivity.
  result.sensitivity = Sensitivity::canonical(
      fit.slope / electrode_area.square_meters());
  result.lod =
      Concentration::milli_molar(3.0 * blank_sigma_a / fit.slope);
  result.loq =
      Concentration::milli_molar(10.0 * blank_sigma_a / fit.slope);
  return result;
}

}  // namespace biosens::analysis
