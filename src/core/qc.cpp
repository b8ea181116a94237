#include "core/qc.hpp"

#include <cmath>

#include "analysis/calibration.hpp"
#include "common/error.hpp"
#include "electrode/assembly.hpp"

namespace biosens::core {
namespace {

void add(QcReport& report, QcFlag flag) {
  report.accepted = false;
  report.flags.push_back(flag);
  if (!report.summary.empty()) report.summary += "; ";
  report.summary += to_string(flag);
}

}  // namespace

std::string_view to_string(QcFlag flag) {
  switch (flag) {
    case QcFlag::kCalibrationNonlinear:
      return "calibration nonlinear";
    case QcFlag::kSensitivityCollapsed:
      return "sensitivity collapsed";
    case QcFlag::kBlankUnstable:
      return "blank unstable";
    case QcFlag::kRangeTruncated:
      return "linear range truncated";
    case QcFlag::kResponseOutOfRange:
      return "response beyond calibrated span";
    case QcFlag::kNoResponse:
      return "no response above blank";
  }
  return "unknown";
}

QcReport review_calibration(const CatalogEntry& design,
                            const ProtocolOutcome& outcome,
                            const QcPolicy& policy) {
  QcReport report;
  report.summary.clear();

  const analysis::CalibrationResult& r = outcome.result;
  if (r.fit.r_squared < policy.min_r_squared) {
    add(report, QcFlag::kCalibrationNonlinear);
  }

  const double design_slope =
      design.published.sensitivity.raw() *
      design.spec.assembly.geometry.working_area.square_meters();
  if (r.fit.slope < policy.min_sensitivity_fraction * design_slope) {
    add(report, QcFlag::kSensitivityCollapsed);
  }

  const double design_noise = electrode::try_synthesize(design.spec.assembly)
                                  .value()
                                  .blank_noise_rms.amps();
  if (r.blank_sigma_a > policy.max_blank_sigma_factor * design_noise) {
    add(report, QcFlag::kBlankUnstable);
  }

  if (r.linear_range_high.milli_molar() <
      policy.min_range_fraction *
          design.published.range_high.milli_molar()) {
    add(report, QcFlag::kRangeTruncated);
  }

  if (report.accepted) report.summary = "calibration accepted";
  return report;
}

QcReport review_assay(const analysis::CalibrationResult& calibration,
                      double response_a, const QcPolicy& /*policy*/) {
  QcReport report;
  report.summary.clear();

  const double span_top = calibration.fit.predict(
      calibration.linear_range_high.milli_molar());
  // 10% grace above the calibrated span before we refuse to extrapolate.
  if (response_a > span_top + 0.1 * std::abs(span_top)) {
    add(report, QcFlag::kResponseOutOfRange);
  }
  if (response_a - calibration.fit.intercept <
      3.0 * calibration.blank_sigma_a) {
    add(report, QcFlag::kNoResponse);
  }
  if (report.accepted) report.summary = "assay accepted";
  return report;
}

}  // namespace biosens::core
