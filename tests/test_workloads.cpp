// Workload generators and Laviron scan-rate analysis.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/laviron.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/catalog.hpp"
#include "core/workloads.hpp"
#include "electrochem/voltammetry.hpp"

namespace biosens::core {
namespace {

TEST(Cohort, GeneratesRequestedSize) {
  Rng rng(1);
  const auto cohort = generate_cohort({25, 1.5, 1.15}, rng);
  ASSERT_EQ(cohort.size(), 25u);
  for (const PatientProfile& p : cohort) {
    EXPECT_GT(p.clearance_multiplier, 0.0);
    EXPECT_GT(p.volume_multiplier, 0.0);
  }
}

TEST(Cohort, LogNormalSpreadMatchesSpec) {
  Rng rng(7);
  const auto cohort = generate_cohort({4000, 1.5, 1.15}, rng);
  std::vector<double> log_cl;
  for (const PatientProfile& p : cohort) {
    log_cl.push_back(std::log(p.clearance_multiplier));
  }
  EXPECT_NEAR(mean(log_cl), 0.0, 0.03);
  EXPECT_NEAR(sample_stddev(log_cl), std::log(1.5), 0.02);
}

TEST(Cohort, NoSpreadMeansIdenticalPatients) {
  Rng rng(3);
  const auto cohort = generate_cohort({5, 1.0, 1.0}, rng);
  for (const PatientProfile& p : cohort) {
    EXPECT_DOUBLE_EQ(p.clearance_multiplier, 1.0);
    EXPECT_DOUBLE_EQ(p.volume_multiplier, 1.0);
  }
}

TEST(Cohort, FixedDosingCoversOnlyPartOfThePopulation) {
  // The Section 1 claim: one-size-fits-all dosing works for a fraction
  // of the population only (the paper cites 20-50% responders).
  Rng rng(11);
  const auto cohort = generate_cohort({80, 1.6, 1.15}, rng);
  const PharmacokineticModel population(Volume::liters(30.0),
                                        Time::seconds(6.0 * 3600.0));
  // Dose tuned for the *average* patient's window.
  const double fraction = cohort_fixed_dose_in_window(
      cohort, population, 270.0, 8, Time::seconds(6.0 * 3600.0), 261.08,
      Concentration::micro_molar(20.0), Concentration::micro_molar(50.0));
  EXPECT_GT(fraction, 0.2);
  EXPECT_LT(fraction, 0.8);
}

TEST(Cohort, CocktailSampleCarriesAllDrugsAndSerumMatrix) {
  const chem::Sample s = cocktail_sample(
      {{"cyclophosphamide", Concentration::micro_molar(30.0)},
       {"ifosfamide", Concentration::micro_molar(80.0)}});
  EXPECT_NEAR(s.concentration_of("cyclophosphamide").micro_molar(), 30.0,
              1e-9);
  EXPECT_NEAR(s.concentration_of("ifosfamide").micro_molar(), 80.0, 1e-9);
  EXPECT_TRUE(s.contains("ascorbic acid"));  // serum matrix
  EXPECT_THROW(cocktail_sample({}), SpecError);
}

TEST(Laviron, RoundTripWithTheSimulatorModel) {
  // Generate (nu, dEp) points from the simulator's own Laviron law and
  // recover k_s.
  const CatalogEntry entry =
      try_entry("MWCNT + CYP (cyclophosphamide)").value();
  const electrode::EffectiveLayer layer =
      electrode::try_synthesize(entry.spec.assembly).value();
  const double true_ks = layer.electron_transfer_rate.per_second();

  std::vector<ScanRate> rates;
  std::vector<Potential> separations;
  for (double vps : {0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0}) {
    electrochem::Cell cell(layer, chem::blank_sample());
    const electrochem::VoltammetrySim sim(
        std::move(cell),
        electrochem::standard_cyp_sweep(ScanRate::volts_per_second(vps)));
    rates.push_back(ScanRate::volts_per_second(vps));
    separations.push_back(sim.peak_separation());
  }
  const analysis::LavironFit fit =
      analysis::fit_laviron(rates, separations, layer.electrons);
  EXPECT_NEAR(fit.electron_transfer_rate.per_second(), true_ks,
              0.15 * true_ks);
  EXPECT_GT(fit.r_squared, 0.99);
  EXPECT_GE(fit.points_used, 4u);
}

TEST(Laviron, CriticalScanRateMatchesModelOnset) {
  const Rate ks = Rate::per_second(9.0);
  const ScanRate crit = analysis::critical_scan_rate(ks, 1);
  EXPECT_NEAR(crit.volts_per_second(), 0.0257 * 9.0, 0.01);
}

TEST(Laviron, RejectsReversibleOnlyStudies) {
  // All separations zero: no kinetic information.
  std::vector<ScanRate> rates = {ScanRate::millivolts_per_second(10.0),
                                 ScanRate::millivolts_per_second(50.0)};
  std::vector<Potential> separations = {Potential::volts(0.0),
                                        Potential::volts(0.0)};
  EXPECT_THROW(analysis::fit_laviron(rates, separations, 1),
               AnalysisError);
}

TEST(Laviron, CntVsBareElectrodeStory) {
  // The paper's materials claim as a measurable: the CNT film's k_s is
  // orders of magnitude above the bare electrode's, so the CNT couple
  // stays reversible at scan rates where the bare one has split peaks.
  const double ks_cnt =
      electrode::mwcnt_chloroform().electron_transfer_rate.per_second();
  const double ks_bare =
      electrode::bare_surface().electron_transfer_rate.per_second();
  EXPECT_GT(ks_cnt / ks_bare, 100.0);
  const ScanRate crit_cnt = analysis::critical_scan_rate(
      Rate::per_second(ks_cnt), 1);
  const ScanRate crit_bare = analysis::critical_scan_rate(
      Rate::per_second(ks_bare), 1);
  EXPECT_GT(crit_cnt.volts_per_second(), 0.05);   // reversible at 50 mV/s
  EXPECT_LT(crit_bare.volts_per_second(), 0.05);  // already kinetic
}

}  // namespace
}  // namespace biosens::core
