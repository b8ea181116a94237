// Quality control: acceptance checks and failure injection.
#include <gtest/gtest.h>

#include "core/catalog.hpp"
#include "core/qc.hpp"
#include "core/stability.hpp"

namespace biosens::core {
namespace {

class QcFixture : public ::testing::Test {
 protected:
  QcFixture() : entry_(try_entry("MWCNT/Nafion + GOD (this work)").value()) {}

  ProtocolOutcome calibrate(const SensorSpec& spec, std::uint64_t seed) {
    const BiosensorModel sensor(spec);
    Rng rng(seed);
    const CalibrationProtocol protocol;
    return protocol.try_run(sensor,
                            standard_series(entry_.published.range_low,
                                            entry_.published.range_high),
                            rng).value();
  }

  CatalogEntry entry_;
};

TEST_F(QcFixture, HealthySensorPassesCalibrationQc) {
  const ProtocolOutcome outcome = calibrate(entry_.spec, 5);
  const QcReport report = review_calibration(entry_, outcome);
  EXPECT_TRUE(report.accepted) << report.summary;
  EXPECT_TRUE(report.flags.empty());
  EXPECT_EQ(report.summary, "calibration accepted");
}

TEST_F(QcFixture, SpentBiolayerFlagsSensitivityCollapse) {
  // A sensor aged far past its useful lifetime: the wired enzyme is
  // mostly gone, the slope collapses.
  SensorSpec aged = entry_.spec;
  aged.assembly.loading_monolayers *= 0.05;  // 95% activity lost
  const ProtocolOutcome outcome = calibrate(aged, 5);
  const QcReport report = review_calibration(entry_, outcome);
  EXPECT_FALSE(report.accepted);
  bool flagged = false;
  for (QcFlag f : report.flags) {
    if (f == QcFlag::kSensitivityCollapsed) flagged = true;
  }
  EXPECT_TRUE(flagged) << report.summary;
}

TEST_F(QcFixture, FouledElectrodeFlagsBlankInstability) {
  SensorSpec fouled = entry_.spec;
  fouled.assembly.noise_tuning *= 10.0;  // fouling multiplies the noise
  const ProtocolOutcome outcome = calibrate(fouled, 5);
  const QcReport report = review_calibration(entry_, outcome);
  EXPECT_FALSE(report.accepted);
  bool flagged = false;
  for (QcFlag f : report.flags) {
    if (f == QcFlag::kBlankUnstable) flagged = true;
  }
  EXPECT_TRUE(flagged) << report.summary;
}

TEST_F(QcFixture, CollapsedKmFlagsRangeTruncation) {
  // A degraded film whose diffusion barrier vanished: apparent K_M
  // drops, the device saturates far below its design range.
  SensorSpec degraded = entry_.spec;
  degraded.assembly.km_tuning *= 0.08;
  const ProtocolOutcome outcome = calibrate(degraded, 5);
  const QcReport report = review_calibration(entry_, outcome);
  EXPECT_FALSE(report.accepted);
  bool flagged = false;
  for (QcFlag f : report.flags) {
    if (f == QcFlag::kRangeTruncated) flagged = true;
  }
  EXPECT_TRUE(flagged) << report.summary;
}

TEST_F(QcFixture, AssayQcAcceptsInSpanResponses) {
  const ProtocolOutcome outcome = calibrate(entry_.spec, 7);
  const double mid_response = outcome.result.fit.predict(0.5);
  const QcReport report = review_assay(outcome.result, mid_response);
  EXPECT_TRUE(report.accepted) << report.summary;
}

TEST_F(QcFixture, AssayQcFlagsOutOfSpanResponses) {
  const ProtocolOutcome outcome = calibrate(entry_.spec, 7);
  const double beyond = outcome.result.fit.predict(
      3.0 * outcome.result.linear_range_high.milli_molar());
  const QcReport report = review_assay(outcome.result, beyond);
  EXPECT_FALSE(report.accepted);
  ASSERT_FALSE(report.flags.empty());
  EXPECT_EQ(report.flags.front(), QcFlag::kResponseOutOfRange);
}

TEST_F(QcFixture, AssayQcFlagsNoResponse) {
  const ProtocolOutcome outcome = calibrate(entry_.spec, 7);
  const QcReport report =
      review_assay(outcome.result, outcome.result.fit.intercept);
  EXPECT_FALSE(report.accepted);
  ASSERT_FALSE(report.flags.empty());
  EXPECT_EQ(report.flags.front(), QcFlag::kNoResponse);
}

TEST(QcFlags, AllHaveLabels) {
  for (QcFlag f : {QcFlag::kCalibrationNonlinear,
                   QcFlag::kSensitivityCollapsed, QcFlag::kBlankUnstable,
                   QcFlag::kRangeTruncated, QcFlag::kResponseOutOfRange,
                   QcFlag::kNoResponse}) {
    EXPECT_NE(to_string(f), "unknown");
  }
}

}  // namespace
}  // namespace biosens::core
