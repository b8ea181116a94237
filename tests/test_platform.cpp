// The multi-target platform: calibration, panel assays, scheduling.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/platform.hpp"

namespace biosens::core {
namespace {

// A lean two-sensor platform for the cheaper tests.
Platform small_platform() {
  Platform p;
  p.add_sensor(try_entry("MWCNT/Nafion + GOD (this work)").value());
  p.add_sensor(try_entry("MWCNT + CYP (cyclophosphamide)").value());
  return p;
}

ProtocolOptions quick_options() {
  ProtocolOptions o;
  o.blank_repeats = 8;
  o.replicates = 1;
  return o;
}

TEST(Platform, PaperPlatformHasSevenSensors) {
  EXPECT_EQ(Platform::paper_platform().sensor_count(), 7u);
}

TEST(Platform, AssayRequiresCalibration) {
  Platform p = small_platform();
  Rng rng(1);
  const auto report = p.try_assay(chem::blank_sample(), rng);
  ASSERT_FALSE(report.has_value());
  EXPECT_EQ(report.error().code, ErrorCode::kSpec);
  EXPECT_FALSE(p.calibrated());
}

TEST(Platform, CannotAddSensorsAfterCalibration) {
  Platform p = small_platform();
  Rng rng(1);
  p.try_calibrate_all(rng, quick_options()).value();
  EXPECT_TRUE(p.calibrated());
  EXPECT_THROW(
      p.add_sensor(try_entry("MWCNT/Nafion + LOD (this work)").value()),
      SpecError);
}

TEST(Platform, AssayRecoversSpikedConcentrations) {
  Platform p = small_platform();
  Rng rng(3);
  p.try_calibrate_all(rng, quick_options()).value();

  chem::Sample sample = chem::blank_sample();
  sample.set("glucose", Concentration::milli_molar(0.5));
  sample.set("cyclophosphamide", Concentration::micro_molar(40.0));

  const PanelReport report = p.try_assay(sample, rng).value();
  ASSERT_EQ(report.results.size(), 2u);

  const AssayResult& glucose = *report.try_for_target("glucose").value();
  EXPECT_NEAR(glucose.estimated.milli_molar(), 0.5, 0.1);
  EXPECT_TRUE(glucose.above_lod);
  EXPECT_TRUE(glucose.within_linear_range);

  const AssayResult& cp = *report.try_for_target("cyclophosphamide").value();
  EXPECT_NEAR(cp.estimated.micro_molar(), 40.0, 10.0);
  EXPECT_TRUE(cp.above_lod);
}

TEST(Platform, BlankAssayReadsBelowLod) {
  Platform p = small_platform();
  Rng rng(5);
  p.try_calibrate_all(rng, quick_options()).value();
  const PanelReport report = p.try_assay(chem::blank_sample(), rng).value();
  EXPECT_FALSE(report.try_for_target("glucose").value()->above_lod);
}

TEST(Platform, MissingTargetIsAnAnalysisError) {
  Platform p = small_platform();
  Rng rng(1);
  p.try_calibrate_all(rng, quick_options()).value();
  const PanelReport report = p.try_assay(chem::blank_sample(), rng).value();
  const auto lactate = report.try_for_target("lactate");
  ASSERT_FALSE(lactate.has_value());
  EXPECT_EQ(lactate.error().code, ErrorCode::kAnalysis);
}

TEST(Platform, SchedulerRunsChipChannelsConcurrently) {
  // Three oxidase sensors share the microfabricated chip: panel time is
  // the longest chip measurement, not the sum.
  Platform oxidases;
  oxidases.add_sensor(try_entry("MWCNT/Nafion + GOD (this work)").value());
  oxidases.add_sensor(try_entry("MWCNT/Nafion + LOD (this work)").value());
  oxidases.add_sensor(try_entry("MWCNT/Nafion + GlOD (this work)").value());
  EXPECT_DOUBLE_EQ(oxidases.scheduled_panel_time().seconds(), 30.0);
}

TEST(Platform, SchedulerSerializesScreenPrintedElectrodes) {
  // CYP sweeps are 32 s each on separate SPEs: strictly additive.
  Platform cyps;
  cyps.add_sensor(try_entry("MWCNT + CYP (cyclophosphamide)").value());
  cyps.add_sensor(try_entry("MWCNT + CYP (ifosfamide)").value());
  EXPECT_DOUBLE_EQ(cyps.scheduled_panel_time().seconds(), 64.0);
}

TEST(Platform, FullPanelTimeCombinesBoth) {
  const Platform p = Platform::paper_platform();
  // 3 chip sensors (30 s concurrent) + 4 SPE sweeps (32 s each).
  EXPECT_DOUBLE_EQ(p.scheduled_panel_time().seconds(), 30.0 + 4.0 * 32.0);
}

TEST(Platform, SampleVolumeAggregates) {
  Platform p = small_platform();
  Rng rng(1);
  p.try_calibrate_all(rng, quick_options()).value();
  const PanelReport report = p.try_assay(chem::blank_sample(), rng).value();
  // 5 uL (chip) + 50 uL (SPE).
  EXPECT_NEAR(report.sample_volume_required.microliters(), 55.0, 1e-9);
}

TEST(Platform, CalibrationAccessors) {
  Platform p = small_platform();
  Rng rng(9);
  p.try_calibrate_all(rng, quick_options()).value();
  EXPECT_GT(p.calibration(0).fit.slope, 0.0);
  EXPECT_GT(p.calibration(1).fit.slope, 0.0);
  EXPECT_THROW(p.calibration(7), SpecError);
  EXPECT_NO_THROW(p.sensor(1));
  EXPECT_THROW(p.sensor(7), SpecError);
}

}  // namespace
}  // namespace biosens::core
