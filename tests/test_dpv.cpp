// Differential pulse voltammetry: differential shape, background
// suppression, and the CV-vs-DPV detection-limit advantage.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/peaks.hpp"
#include "chem/enzyme.hpp"
#include "chem/solution.hpp"
#include "core/catalog.hpp"
#include "core/protocol.hpp"
#include "electrochem/dpv.hpp"

namespace biosens::electrochem {
namespace {

electrode::EffectiveLayer cyp_layer() {
  const core::CatalogEntry entry =
      core::try_entry("MWCNT + CYP (cyclophosphamide)").value();
  return electrode::try_synthesize(entry.spec.assembly).value();
}

DpvTrace trace_at(Concentration drug, DpvOptions options = {}) {
  Cell cell(cyp_layer(),
            chem::calibration_sample("cyclophosphamide", drug));
  return DifferentialPulseSim(std::move(cell), standard_cyp_dpv(), options)
      .try_run().value();
}

TEST(Dpv, ShapeFactorProperties) {
  // Zero pulse -> zero difference; larger pulses -> larger factor,
  // saturating at 1 (full occupancy swing).
  const double small = DifferentialPulseSim::differential_shape_factor(
      Potential::millivolts(-10.0));
  const double standard = DifferentialPulseSim::differential_shape_factor(
      Potential::millivolts(-50.0));
  const double huge = DifferentialPulseSim::differential_shape_factor(
      Potential::millivolts(-500.0));
  EXPECT_GT(small, 0.0);
  EXPECT_GT(standard, small);
  EXPECT_GT(huge, standard);
  EXPECT_LT(huge, 1.0);
  EXPECT_NEAR(huge, 1.0, 0.01);
  // The standard -50 mV pulse on a 1-electron couple swings ~45% of the
  // occupancy at the optimum potential.
  EXPECT_NEAR(standard, 0.45, 0.02);
}

TEST(Dpv, PeakSitsNearFormalPotential) {
  const auto trace = trace_at(Concentration::micro_molar(40.0));
  const auto peak = analysis::find_dpv_peak(trace);
  ASSERT_TRUE(peak.has_value());
  const double e0 =
      chem::try_enzyme("CYP2B6").value()->formal_potential.volts();
  // Peak at E0 - amplitude/2 (midpoint of base and pulsed potentials).
  EXPECT_NEAR(peak->potential_v, e0 + 0.025, 0.02);
}

TEST(Dpv, PeakGrowsLinearlyWithDrug) {
  const auto height = [&](double um) {
    const auto peak =
        analysis::find_dpv_peak(trace_at(Concentration::micro_molar(um)));
    return peak.has_value() ? peak->height_a : 0.0;
  };
  const double h0 = height(0.0);
  const double h35 = height(35.0);
  const double h70 = height(70.0);
  EXPECT_GT(h0, 0.0);  // surface-charge peak even without drug
  // Without the Randles-Sevcik transport cap of CV, DPV sees the
  // film's Michaelis-Menten curvature directly at the range top.
  EXPECT_NEAR((h70 - h0) / (h35 - h0), 2.0, 0.3);
}

TEST(Dpv, BaselineIsFlatAwayFromPeak) {
  // The capacitive residue is constant in E and the faradaic difference
  // vanishes several bell-widths from E0: the first tenth of the trace
  // (0.2 .. 0.12 V, >8 widths above the couple) is flat.
  const auto trace = trace_at(Concentration::micro_molar(40.0));
  const std::size_t tenth = trace.size() / 10;
  double lo = 1e9, hi = -1e9;
  for (std::size_t k = 2; k < tenth; ++k) {
    lo = std::min(lo, trace.delta_current_a[k]);
    hi = std::max(hi, trace.delta_current_a[k]);
  }
  const auto peak = analysis::find_dpv_peak(trace);
  ASSERT_TRUE(peak.has_value());
  EXPECT_LT(hi - lo, 0.02 * peak->height_a);
}

TEST(Dpv, InterferentsPerturbOnlyTheStaircaseStart) {
  Cell serum_cell(cyp_layer(),
                  chem::serum_sample("cyclophosphamide",
                                     Concentration::micro_molar(40.0)));
  const auto serum_trace =
      DifferentialPulseSim(std::move(serum_cell), standard_cyp_dpv())
          .try_run()
          .value();
  const auto clean_trace = trace_at(Concentration::micro_molar(40.0));
  const auto serum_peak = analysis::find_dpv_peak(serum_trace);
  const auto clean_peak = analysis::find_dpv_peak(clean_trace);
  ASSERT_TRUE(serum_peak.has_value());
  ASSERT_TRUE(clean_peak.has_value());
  EXPECT_NEAR(serum_peak->height_a, clean_peak->height_a,
              0.05 * clean_peak->height_a);
}

TEST(Dpv, FlatTraceHasNoPeak) {
  DpvTrace flat;
  for (int i = 0; i < 100; ++i) {
    flat.potential_v.push_back(0.2 - 0.005 * i);
    flat.delta_current_a.push_back(1e-9);
  }
  EXPECT_FALSE(analysis::find_dpv_peak(flat).has_value());
}

TEST(Dpv, SensorModelRoutesDpvTechnique) {
  core::SensorSpec spec =
      core::try_entry("MWCNT + CYP (cyclophosphamide)").value().spec;
  spec.technique = core::Technique::kDifferentialPulseVoltammetry;
  const core::BiosensorModel sensor(spec);
  Rng rng(3);
  const core::Measurement m = sensor.try_measure(
      chem::calibration_sample("cyclophosphamide",
                               Concentration::micro_molar(40.0)),
      rng).value();
  EXPECT_EQ(m.technique, core::Technique::kDifferentialPulseVoltammetry);
  EXPECT_FALSE(m.dpv.empty());
  EXPECT_TRUE(m.voltammogram.empty());
  EXPECT_GT(m.response_a, 0.0);
}

TEST(Dpv, BackgroundSubtractionImprovesBlankNoise) {
  // The same CP device measured by CV vs DPV: the differential readout
  // cancels most of the low-frequency electrode background, so repeated
  // blank responses scatter much less.
  const core::CatalogEntry entry =
      core::try_entry("MWCNT + CYP (cyclophosphamide)").value();
  core::SensorSpec dpv_spec = entry.spec;
  dpv_spec.technique = core::Technique::kDifferentialPulseVoltammetry;

  const core::BiosensorModel cv_sensor(entry.spec);
  const core::BiosensorModel dpv_sensor(dpv_spec);
  Rng rng(17);

  const auto blank_sigma_of = [&](const core::BiosensorModel& s) {
    std::vector<double> responses;
    for (int i = 0; i < 16; ++i) {
      responses.push_back(
          s.try_measure(chem::blank_sample(), rng).value().response_a);
    }
    return analysis::blank_sigma(responses);
  };
  const double cv_sigma = blank_sigma_of(cv_sensor);
  const double dpv_sigma = blank_sigma_of(dpv_sensor);
  EXPECT_LT(dpv_sigma, 0.5 * cv_sigma);
}

}  // namespace
}  // namespace biosens::electrochem
