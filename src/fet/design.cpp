#include "fet/design.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "analysis/calibration.hpp"
#include "chem/solution.hpp"
#include "common/constants.hpp"
#include "common/error.hpp"
#include "fet/transducer.hpp"

namespace biosens::fet {
namespace {

/// Shift slope at low concentration [V/mM]: s_max / K_d.
/// The solver iterates this knob (via receptor density) and K_d.
void apply_knobs(DeviceParams& p, double shift_slope_v_per_mm,
                 double k_d_mm) {
  p.k_d = Concentration::milli_molar(k_d_mm);
  // s_max = slope * K_d; N_r = s_max * c_g / (e * q_eff).
  p.receptor_density_per_m2 = shift_slope_v_per_mm * k_d_mm *
                              p.gate_capacitance_f_per_m2 /
                              (constants::kElementaryCharge *
                               p.charge_per_binding_e);
}

/// Runs the real CalibrationEngine on the noiseless operating-current
/// model over the design series; returns (sensitivity canonical,
/// detected range top mM). The blank offset current stays in the points
/// (the protocol never subtracts it either — it lands in the fit
/// intercept), so the detected range here predicts the detected range
/// of the real noisy protocol.
std::pair<double, double> measure_model(const DeviceParams& p,
                                        const std::vector<Concentration>& series,
                                        double point_sigma_a) {
  std::vector<analysis::CalibrationPoint> points;
  points.reserve(series.size());
  for (const Concentration& c : series) {
    points.push_back({c, p.operating_current(c).amps()});
  }
  const analysis::CalibrationEngine engine;
  const analysis::CalibrationResult r =
      engine.try_calibrate(points, 0.0, p.channel_area, point_sigma_a).value();
  return {r.sensitivity.raw(), r.linear_range_high.milli_molar()};
}

/// Realized blank sigma of the full measurement pipeline (FlickerStack
/// -> TIA/ADC/boxcar -> tail mean), estimated from fixed-seed replicate
/// holds. This is what the calibration protocol's blank_sigma() sees.
double measured_blank_sigma(const DeviceParams& p, std::string_view target) {
  const auto transducer =
      make_transducer(p, "fet design probe", std::string(target));
  const chem::Sample blank = chem::blank_sample();
  Rng rng(0xFE7D51);
  constexpr std::size_t kRepeats = 32;
  std::vector<double> responses;
  responses.reserve(kRepeats);
  for (std::size_t i = 0; i < kRepeats; ++i) {
    responses.push_back(
        transducer->try_transduce(blank, rng, nullptr).value().response_a);
  }
  return analysis::blank_sigma(responses);
}

}  // namespace

std::vector<Concentration> design_series(Concentration low,
                                         Concentration high) {
  require<SpecError>(high > low, "series needs high > low");
  std::vector<Concentration> out;
  out.reserve(13);
  const double lo = low.milli_molar();
  const double hi = high.milli_molar();
  for (int k = 0; k <= 8; ++k) {
    out.push_back(Concentration::milli_molar(lo + (hi - lo) * k / 8.0));
  }
  for (double f : {1.25, 1.5, 1.75, 2.0}) {
    out.push_back(Concentration::milli_molar(lo + (hi - lo) * f));
  }
  return out;
}

void calibrate_to_figures(DeviceParams& params, std::string_view target,
                          const FigureTargets& figures) {
  const std::string device = std::string(to_string(params.channel)) +
                             " FET / " + std::string(target);
  const double sigma_target = figures.sensitivity.raw();
  require<SpecError>(sigma_target > 0.0, "target sensitivity must be > 0");
  const double slope_target_a_per_mm =
      sigma_target * params.channel_area.square_meters();
  const double r_target = figures.range_high.milli_molar();

  // Transconductance at the operating point of the blank device [S/V];
  // the sign convention: a binding-induced positive shift must raise the
  // drain current (both reference channels operate on a falling branch).
  const double h = 1e-4;
  const double vg = params.v_gate_operating.volts();
  const Concentration blank0 = Concentration::milli_molar(0.0);
  const double gm =
      (params.conductance_s(vg - h, blank0) -
       params.conductance_s(vg + h, blank0)) /
      (2.0 * h);
  require<SpecError>(gm > 0.0,
                     "operating point has the wrong response sign for " +
                         device);
  const double gm_ceiling =
      gm * std::abs(params.v_ds.volts());  // dI/dV_shift at the blank op
  require<SpecError>(
      slope_target_a_per_mm < 0.98 * gm_ceiling,
      "target sensitivity exceeds what a 1 V/mM shift could deliver for " +
          device);

  // The noise allowance the real engine will grant each replicate-
  // averaged calibration point, anticipated from the target LOD (same
  // 1.4x margin and 3 replicates as the amperometric design).
  const double expected_sigma =
      figures.lod.milli_molar() * slope_target_a_per_mm / 3.0;
  const double point_sigma = 1.4 * expected_sigma / std::sqrt(3.0);

  const std::vector<Concentration> series =
      design_series(figures.range_low, figures.range_high);

  // Two-knob fixed point, mirroring core's solve_two_knobs: the shift
  // slope tracks the sensitivity ratio, K_d the (grid-quantized, hence
  // damped) detected-range ratio.
  double k1 = slope_target_a_per_mm / gm_ceiling;  // shift slope [V/mM]
  double k2 = 3.0 * r_target;                      // K_d [mM]
  bool converged = false;
  for (int iter = 0; iter < 120 && !converged; ++iter) {
    apply_knobs(params, k1, k2);
    const auto [sigma, r_top] = measure_model(params, series, point_sigma);
    require<SpecError>(sigma > 0.0,
                       "inverse design produced a dead response: " + device);
    const double sigma_ratio = sigma_target / sigma;
    const double range_ratio = r_target / r_top;
    if (std::abs(sigma_ratio - 1.0) < 5e-4 &&
        std::abs(range_ratio - 1.0) < 5e-4) {
      converged = true;
      break;
    }
    k1 *= std::clamp(sigma_ratio, 0.25, 4.0);
    k2 *= std::clamp(std::pow(range_ratio, 0.7), 0.5, 2.0);
  }
  if (!converged) {
    apply_knobs(params, k1, k2);
    const auto [sigma, r_top] = measure_model(params, series, point_sigma);
    require<SpecError>(
        std::abs(sigma / sigma_target - 1.0) < 0.02 &&
            std::abs(r_top / r_target - 1.0) < 0.15,
        "inverse design did not converge for " + device);
  }

  // Noise floor: the published LOD demands a blank sigma of
  // LOD * slope / 3. The tail-mean/boxcar pipeline attenuates the
  // flicker stack by a shape factor that is easier to measure than to
  // derive, so rescale the rms against fixed-seed blank runs (linear in
  // the rms, so two passes settle it).
  const double sigma_needed =
      figures.lod.milli_molar() * slope_target_a_per_mm / 3.0;
  params.noise.flicker_rms_a = sigma_needed;
  for (int pass = 0; pass < 2; ++pass) {
    const double realized = measured_blank_sigma(params, target);
    require<SpecError>(realized > 0.0,
                       "blank sigma measured as zero for " + device);
    params.noise.flicker_rms_a *= sigma_needed / realized;
  }
}

}  // namespace biosens::fet
