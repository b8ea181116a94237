// Cyclic voltammetry simulator: hysteresis, Laviron kinetics, catalytic
// peak proportionality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/peaks.hpp"
#include "chem/enzyme.hpp"
#include "chem/solution.hpp"
#include "common/constants.hpp"
#include "electrochem/voltammetry.hpp"
#include "electrode/assembly.hpp"

namespace biosens::electrochem {
namespace {

electrode::EffectiveLayer cyp_layer(double loading = 0.4) {
  electrode::Assembly a;
  a.geometry = electrode::screen_printed_electrode();
  a.modification = electrode::mwcnt_chloroform();
  a.immobilization = electrode::try_immobilization_defaults(
      electrode::ImmobilizationMethod::kAdsorption).value();
  a.enzyme = *chem::try_enzyme("CYP2B6").value();
  a.substrate = "cyclophosphamide";
  a.loading_monolayers = loading;
  return electrode::try_synthesize(a).value();
}

VoltammetrySim make_sim(Concentration drug) {
  Cell cell(cyp_layer(),
            chem::calibration_sample("cyclophosphamide", drug));
  return VoltammetrySim(std::move(cell), standard_cyp_sweep());
}

TEST(RandlesSevcik, FormulaAndScaling) {
  const Diffusivity d = Diffusivity::cm2_per_s(5.5e-6);
  const Concentration c = Concentration::milli_molar(1.0);
  const ScanRate nu = ScanRate::millivolts_per_second(50.0);
  const double j = randles_sevcik_density(1, d, c, nu).amps_per_m2();
  // 0.446 F c sqrt(F nu D / RT)
  const double f_rt = constants::kFaraday / (constants::kGasConstant *
                                             constants::kRoomTemperatureK);
  const double expected =
      0.446 * constants::kFaraday * std::sqrt(f_rt * 0.05 * 5.5e-10);
  EXPECT_NEAR(j, expected, 1e-9 * expected);
  // sqrt scaling with scan rate.
  const double j4 =
      randles_sevcik_density(1, d, c, ScanRate::millivolts_per_second(200.0))
          .amps_per_m2();
  EXPECT_NEAR(j4 / j, 2.0, 1e-9);
}

TEST(Voltammetry, HysteresisLoopExists) {
  const Voltammogram vg =
      make_sim(Concentration::micro_molar(40.0)).try_run().value();
  ASSERT_GT(vg.size(), 100u);
  EXPECT_GT(analysis::try_hysteresis_area(vg).value(), 0.0);
  // Forward branch is the cathodic one (sweep starts at +0.2 V).
  EXPECT_GT(vg.potential_v.front(), vg.potential_v[vg.turning_index - 1]);
}

TEST(Voltammetry, CathodicAndAnodicPeaksNearFormalPotential) {
  const Voltammogram vg =
      make_sim(Concentration::micro_molar(40.0)).try_run().value();
  const auto cathodic = analysis::try_find_cathodic_peak(vg).value();
  const auto anodic = analysis::try_find_anodic_peak(vg).value();
  ASSERT_TRUE(cathodic.has_value());
  ASSERT_TRUE(anodic.has_value());
  const double e0 =
      chem::try_enzyme("CYP2B6").value()->formal_potential.volts();
  EXPECT_NEAR(cathodic->potential_v, e0, 0.15);
  EXPECT_NEAR(anodic->potential_v, e0, 0.15);
  // Cathodic peak carries the catalytic current on top of the bell.
  EXPECT_GT(cathodic->height_a, anodic->height_a);
}

TEST(Voltammetry, PeakHeightGrowsLinearlyAtLowConcentration) {
  // "The peak height is proportional to drug concentration."
  const auto height = [&](double um) {
    const auto peak = analysis::try_find_cathodic_peak(
        make_sim(Concentration::micro_molar(um)).try_run().value()).value();
    return peak.has_value() ? peak->height_a : 0.0;
  };
  const double h0 = height(0.0);
  const double h20 = height(20.0);
  const double h40 = height(40.0);
  // Baseline bell at zero drug, then linear increments.
  EXPECT_GT(h20, h0);
  EXPECT_NEAR((h40 - h0) / (h20 - h0), 2.0, 0.15);
}

TEST(Voltammetry, PeakSeparationGrowsWithScanRate) {
  Cell slow_cell(cyp_layer(), chem::blank_sample());
  Cell fast_cell(cyp_layer(), chem::blank_sample());
  const VoltammetrySim slow(
      std::move(slow_cell),
      standard_cyp_sweep(ScanRate::millivolts_per_second(20.0)));
  const VoltammetrySim fast(
      std::move(fast_cell),
      standard_cyp_sweep(ScanRate::volts_per_second(5.0)));
  EXPECT_LE(slow.peak_separation().volts(), fast.peak_separation().volts());
  EXPECT_GT(fast.peak_separation().volts(), 0.0);
}

TEST(Voltammetry, ReversibleLimitHasNoSeparation) {
  // Slow sweep on a fast-transfer surface: m >= 1 -> zero separation.
  electrode::EffectiveLayer layer = cyp_layer();
  layer.electron_transfer_rate = Rate::per_second(1000.0);
  Cell cell(layer, chem::blank_sample());
  const VoltammetrySim sim(
      std::move(cell),
      standard_cyp_sweep(ScanRate::millivolts_per_second(10.0)));
  EXPECT_DOUBLE_EQ(sim.peak_separation().volts(), 0.0);
}

TEST(Voltammetry, CatalyticPeakDensityCappedByTransport) {
  const VoltammetrySim sim = make_sim(Concentration::micro_molar(40.0));
  const electrode::EffectiveLayer layer = cyp_layer();
  const Concentration c = Concentration::micro_molar(40.0);
  const chem::MichaelisMenten mm = layer.try_kinetics().value();
  const double kin = layer.catalytic_current_density(mm, c).amps_per_m2();
  const double rs =
      randles_sevcik_density(layer.electrons, layer.substrate_diffusivity,
                             c, ScanRate::millivolts_per_second(50.0))
          .amps_per_m2() *
      layer.area_enhancement;
  const double combined = sim.catalytic_peak_density(mm, c).amps_per_m2();
  EXPECT_LT(combined, kin);
  EXPECT_LT(combined, rs);
  EXPECT_NEAR(combined, kin * rs / (kin + rs), 1e-9 * combined);
}

TEST(Voltammetry, CapacitiveBoxScalesWithSweepRate) {
  electrode::EffectiveLayer layer = cyp_layer();
  Cell cell(layer, chem::blank_sample());
  VoltammetryOptions opts;
  opts.include_interferents = false;
  const VoltammetrySim sim(std::move(cell), standard_cyp_sweep(), opts);
  const Voltammogram vg = sim.try_run().value();
  // Far from the redox couple (at the positive end of both branches) the
  // current is the +/- capacitive box.
  const double i_fwd = vg.current_a[1];
  const double i_back = vg.current_a[vg.size() - 2];
  const double expected = layer.double_layer.farads() * 0.05;
  EXPECT_NEAR(-i_fwd, expected, 0.1 * expected);
  EXPECT_NEAR(i_back, expected, 0.1 * expected);
}

TEST(Voltammetry, BlankStillShowsProteinRedoxPeak) {
  // Even without drug, the immobilized heme produces a peak pair — the
  // calibration intercept of the CYP sensors.
  const auto peak = analysis::try_find_cathodic_peak(
                        make_sim(Concentration{}).try_run().value())
                        .value();
  ASSERT_TRUE(peak.has_value());
  EXPECT_GT(peak->height_a, 0.0);
}

}  // namespace
}  // namespace biosens::electrochem
