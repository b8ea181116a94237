// The electrochemical cell: interferent background, capacitive charging,
// hydrodynamics.
#include <gtest/gtest.h>

#include <cmath>

#include "chem/enzyme.hpp"
#include "chem/solution.hpp"
#include "electrochem/cell.hpp"
#include "electrode/assembly.hpp"

namespace biosens::electrochem {
namespace {

electrode::EffectiveLayer glucose_layer() {
  electrode::Assembly a;
  a.geometry = electrode::microfabricated_gold();
  a.modification = electrode::mwcnt_nafion();
  a.immobilization = electrode::try_immobilization_defaults(
      electrode::ImmobilizationMethod::kAdsorption).value();
  a.enzyme = *chem::try_enzyme("GOD").value();
  a.substrate = "glucose";
  a.loading_monolayers = 0.5;
  return electrode::try_synthesize(a).value();
}

TEST(Cell, SubstrateBulkComesFromSample) {
  const Cell cell(glucose_layer(),
                  chem::calibration_sample(
                      "glucose", Concentration::milli_molar(2.5)));
  EXPECT_DOUBLE_EQ(cell.substrate_bulk().milli_molar(), 2.5);
}

TEST(Cell, OxidationOnsetsExistForInterferentsOnly) {
  EXPECT_TRUE(oxidation_onset("ascorbic acid").has_value());
  EXPECT_TRUE(oxidation_onset("uric acid").has_value());
  EXPECT_TRUE(oxidation_onset("paracetamol").has_value());
  EXPECT_TRUE(oxidation_onset("hydrogen peroxide").has_value());
  EXPECT_FALSE(oxidation_onset("glucose").has_value());
  EXPECT_FALSE(oxidation_onset("cyclophosphamide").has_value());
}

TEST(Cell, InterferentCurrentGatedByPotential) {
  const Cell cell(glucose_layer(),
                  chem::serum_sample("glucose",
                                     Concentration::milli_molar(5.0)));
  const double below =
      cell.try_interferent_current(Potential::millivolts(0.0)).value().amps();
  const double above =
      cell.try_interferent_current(Potential::millivolts(650.0)).value().amps();
  EXPECT_LT(below, 0.05 * above);
  EXPECT_GT(above, 0.0);
}

TEST(Cell, CleanBufferHasNoInterferentCurrent) {
  const Cell cell(glucose_layer(),
                  chem::calibration_sample(
                      "glucose", Concentration::milli_molar(5.0)));
  EXPECT_DOUBLE_EQ(cell.try_interferent_current(Potential::millivolts(650.0))
                       .value()
                       .amps(),
                   0.0);
}

TEST(Cell, PermselectiveFilmSuppressesInterferents) {
  // The same serum on a bare electrode vs the Nafion-modified one.
  electrode::Assembly bare_assembly;
  bare_assembly.geometry = electrode::microfabricated_gold();
  bare_assembly.modification = electrode::bare_surface();
  bare_assembly.immobilization = electrode::try_immobilization_defaults(
      electrode::ImmobilizationMethod::kAdsorption).value();
  bare_assembly.enzyme = *chem::try_enzyme("GOD").value();
  bare_assembly.substrate = "glucose";
  bare_assembly.loading_monolayers = 0.5;

  const chem::Sample serum =
      chem::serum_sample("glucose", Concentration::milli_molar(5.0));
  const Cell nafion_cell(glucose_layer(), serum);
  const Cell bare_cell(electrode::try_synthesize(bare_assembly).value(), serum);

  const double nafion =
      nafion_cell.try_interferent_current(Potential::millivolts(650.0))
          .value()
          .amps();
  const double bare =
      bare_cell.try_interferent_current(Potential::millivolts(650.0))
          .value()
          .amps();
  EXPECT_NEAR(nafion / bare, 0.10, 0.02);  // Nafion transmission
}

TEST(Cell, CapacitiveStepDecaysWithRcConstant) {
  const Cell cell(glucose_layer(), chem::blank_sample());
  const Potential step = Potential::millivolts(650.0);
  const double tau = cell.layer().solution_resistance.ohms() *
                     cell.layer().double_layer.farads();
  const double i0 =
      cell.capacitive_step_current(step, Time::seconds(0.0)).amps();
  const double at_tau =
      cell.capacitive_step_current(step, Time::seconds(tau)).amps();
  EXPECT_NEAR(i0, 0.65 / cell.layer().solution_resistance.ohms(), 1e-12);
  EXPECT_NEAR(at_tau / i0, std::exp(-1.0), 1e-9);
}

TEST(Cell, CapacitiveSweepProportionalToRate) {
  const Cell cell(glucose_layer(), chem::blank_sample());
  const double slow = cell.capacitive_sweep_current(
                              ScanRate::millivolts_per_second(50.0))
                          .amps();
  const double fast = cell.capacitive_sweep_current(
                              ScanRate::millivolts_per_second(100.0))
                          .amps();
  EXPECT_NEAR(fast / slow, 2.0, 1e-12);
}

TEST(Cell, StirredLayerIsTimeIndependent) {
  const Cell cell(glucose_layer(),
                  chem::blank_sample(), Hydrodynamics{true, 400.0});
  EXPECT_DOUBLE_EQ(cell.layer_thickness_m(Time::seconds(1.0)),
                   cell.layer_thickness_m(Time::seconds(100.0)));
  EXPECT_NEAR(cell.layer_thickness_m(Time::seconds(1.0)), 25e-6, 1e-9);
}

TEST(Cell, QuiescentLayerGrows) {
  const Cell cell(glucose_layer(), chem::blank_sample(),
                  Hydrodynamics{false, 0.0});
  EXPECT_LT(cell.layer_thickness_m(Time::seconds(1.0)),
            cell.layer_thickness_m(Time::seconds(30.0)));
}

}  // namespace
}  // namespace biosens::electrochem
