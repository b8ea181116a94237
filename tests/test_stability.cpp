// Aging, recalibration planning, and the integration-economics model.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/catalog.hpp"
#include "core/integration.hpp"
#include "core/stability.hpp"

namespace biosens::core {
namespace {

SensorSpec glucose_spec() {
  return try_entry("MWCNT/Nafion + GOD (this work)").value().spec;
}

TEST(Stability, FreshSensorRetainsEverything) {
  const StabilityReport r =
      stability_after(glucose_spec(), Time::seconds(0.0));
  EXPECT_DOUBLE_EQ(r.retained, 1.0);
  EXPECT_DOUBLE_EQ(r.initial.raw(), r.aged.raw());
}

TEST(Stability, RetentionDecaysExponentially) {
  const SensorSpec spec = glucose_spec();
  const double week = 7.0 * 86400.0;
  const double r1 =
      stability_after(spec, Time::seconds(week)).retained;
  const double r2 =
      stability_after(spec, Time::seconds(2.0 * week)).retained;
  EXPECT_LT(r1, 1.0);
  EXPECT_NEAR(r2, r1 * r1, 1e-9);
}

TEST(Stability, RecalibrationIntervalMatchesDecay) {
  const SensorSpec spec = glucose_spec();
  const double lambda = spec.assembly.immobilization.decay.per_second();
  const Time interval = recalibration_interval(spec, 0.05);
  EXPECT_NEAR(interval.seconds(), -std::log(0.95) / lambda, 1.0);
  // Sanity: the adsorbed-enzyme platform needs recalibration every few
  // days at 5% tolerance.
  EXPECT_GT(interval.seconds(), 86400.0);
  EXPECT_LT(interval.seconds(), 10.0 * 86400.0);
  // And the retention at that age is exactly the tolerance.
  EXPECT_NEAR(stability_after(spec, interval).retained, 0.95, 1e-9);
}

TEST(Stability, LifetimeLongerForCovalentImmobilization) {
  SensorSpec adsorbed = glucose_spec();
  SensorSpec covalent = glucose_spec();
  covalent.assembly.immobilization = electrode::try_immobilization_defaults(
      electrode::ImmobilizationMethod::kCovalent).value();
  covalent.assembly.loading_monolayers = std::min(
      covalent.assembly.loading_monolayers,
      covalent.assembly.immobilization.max_monolayers);
  EXPECT_GT(useful_lifetime(covalent, 0.5).seconds(),
            useful_lifetime(adsorbed, 0.5).seconds());
}

TEST(Stability, CompensatedSlopeTracksDrift) {
  // Standard reads 90% of expected -> slope corrected to 90%.
  EXPECT_NEAR(compensated_slope(2e-6, 0.9e-7, 1.0e-7), 1.8e-6, 1e-12);
  EXPECT_THROW(compensated_slope(0.0, 1.0, 1.0), AnalysisError);
  EXPECT_THROW(compensated_slope(1.0, 1.0, 0.0), AnalysisError);
}

TEST(Stability, ParameterValidation) {
  EXPECT_THROW(recalibration_interval(glucose_spec(), 0.0), SpecError);
  EXPECT_THROW(recalibration_interval(glucose_spec(), 1.0), SpecError);
  EXPECT_THROW(useful_lifetime(glucose_spec(), 1.5), SpecError);
}

// --- integration economics (Section 2.5) ---

TechnologyNode node_180() { return {180.0, 0.05, 250e3}; }
TechnologyNode node_65() { return {65.0, 0.20, 900e3}; }

TEST(Integration, DigitalShrinksAnalogDoesNot) {
  const Block digital{"dsp", BlockDomain::kDigital, 4.0, 0.0};
  const Block analog{"afe", BlockDomain::kAnalog, 1.8, 0.0};
  const Block bio{"electrodes", BlockDomain::kBio, 2.5, 0.0};
  // 65 nm vs 180 nm: digital ~ (65/180)^2 = 0.13x; analog barely moves;
  // bio not at all.
  EXPECT_NEAR(scaled_area_mm2(digital, node_65()),
              4.0 * std::pow(65.0 / 180.0, 2.0), 1e-9);
  EXPECT_GT(scaled_area_mm2(analog, node_65()),
            0.7 * scaled_area_mm2(analog, node_180()));
  EXPECT_DOUBLE_EQ(scaled_area_mm2(bio, node_65()),
                   scaled_area_mm2(bio, node_180()));
}

TEST(Integration, StandardBlockSetCoversSection25) {
  const auto blocks = standard_system_blocks();
  EXPECT_GE(blocks.size(), 5u);
  bool has_bio = false, has_rf = false, has_analog = false;
  for (const Block& b : blocks) {
    has_bio |= b.domain == BlockDomain::kBio;
    has_rf |= b.domain == BlockDomain::kRf;
    has_analog |= b.domain == BlockDomain::kAnalog;
  }
  EXPECT_TRUE(has_bio);
  EXPECT_TRUE(has_rf);
  EXPECT_TRUE(has_analog);
}

TEST(Integration, HeterogeneousStackBeatsMonolithicPerTest) {
  // The paper's claim: heterogeneous platform integration with a
  // disposable biolayer reduces cost. Monolithic in 65 nm fuses the
  // biolayer to an expensive die that dies with it (say 50 tests);
  // the stack replaces a cheap biolayer and keeps the silicon.
  const auto blocks = standard_system_blocks();
  const std::size_t units = 100000;
  const IntegrationReport mono =
      monolithic(blocks, node_65(), units, /*tests_per_unit=*/50);
  const IntegrationReport stack = stacked_heterogeneous(
      blocks, node_65(), node_180(), /*biolayer_cost=*/0.30,
      /*tests_per_biolayer=*/50, units, /*tests_per_unit=*/5000);
  EXPECT_LT(stack.cost_per_test, 0.5 * mono.cost_per_test);
}

TEST(Integration, AdvancedNodeMonolithicWastesAnalogArea) {
  // Moving monolithic from 180 to 65 nm: the die shrinks far less than
  // the digital 7.7x because analog + bio dominate.
  const auto blocks = standard_system_blocks();
  const IntegrationReport at180 = monolithic(blocks, node_180(), 1000, 50);
  const IntegrationReport at65 = monolithic(blocks, node_65(), 1000, 50);
  const double shrink = at180.total_area_mm2 / at65.total_area_mm2;
  EXPECT_GT(shrink, 1.3);
  EXPECT_LT(shrink, 3.0);  // nowhere near the 7.7x digital-only shrink
}

TEST(Integration, ReportsAreInternallyConsistent) {
  const auto blocks = standard_system_blocks();
  const IntegrationReport r = monolithic(blocks, node_180(), 1000, 50);
  EXPECT_GT(r.total_area_mm2, 0.0);
  EXPECT_GT(r.total_power_uw, 0.0);
  EXPECT_GT(r.unit_cost, 0.0);
  // cost/test = (NRE/units + unit)/tests with no consumable.
  EXPECT_NEAR(r.cost_per_test,
              (r.nre_cost / 1000.0 + r.unit_cost) / 50.0, 1e-9);
}

}  // namespace
}  // namespace biosens::core
