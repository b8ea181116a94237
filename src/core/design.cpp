#include "core/design.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "analysis/calibration.hpp"
#include "common/regression.hpp"
#include "common/constants.hpp"
#include "common/error.hpp"
#include "chem/species.hpp"
#include "common/math.hpp"
#include "electrochem/voltammetry.hpp"
#include "transport/analytic.hpp"

namespace biosens::core {
namespace {

using ResponseModel = std::function<double(double /*conc_mM*/)>;

/// Steady-state areal current density [A/m^2] of an enzyme layer with
/// maximum flux `a` (= Gamma * k_cat, mol m^-2 s^-1) and apparent K_M
/// `k_mm` behind a Nernst layer of thickness `delta_m`.
double ca_steady_density(double a, double k_mm, int electrons, double d,
                         double delta_m, double conc_mm) {
  if (conc_mm <= 0.0 || a <= 0.0) return 0.0;
  // Surface concentration solves D*(cb - c0)/delta = A*c0/(K + c0).
  const auto balance = [&](double c0) {
    return d * (conc_mm - c0) / delta_m - a * c0 / (k_mm + c0);
  };
  const double c0 = bisect(balance, 0.0, conc_mm, conc_mm * 1e-12);
  const double flux = a * c0 / (k_mm + c0);
  return electrons * constants::kFaraday * flux;
}

/// Fraction of a Laviron-shaped peak the analysis::find_cathodic_peak
/// estimator recovers. The estimator's baseline window sits on the bell
/// flank at [4w, 6w] before the peak (w = RT/F); extrapolating the
/// window's line fit back to the peak subtracts the extrapolated flank
/// value from the height. Computed once from the same bell shape.
double cv_peak_recovery() {
  static const double kRecovery = [] {
    const auto shape = [](double x) {
      const double e = std::exp(-std::abs(x));
      return 4.0 * e / ((1.0 + e) * (1.0 + e));
    };
    std::vector<double> xs, ys;
    for (int k = 0; k <= 20; ++k) {
      const double x = 4.0 + 2.0 * k / 20.0;
      xs.push_back(x);
      ys.push_back(shape(x));
    }
    return 1.0 - fit_ols(xs, ys).predict(0.0);
  }();
  return kRecovery;
}

/// Catalytic CV peak-height density [A/m^2]: Koutecky-Levich combination
/// of the kinetic current and the porous-film Randles-Sevcik ceiling,
/// scaled by the estimator's peak recovery.
double cv_peak_density(double a, double k_mm, int electrons, Diffusivity d,
                       double enhancement, ScanRate nu, double conc_mm) {
  if (conc_mm <= 0.0 || a <= 0.0) return 0.0;
  const double j_kin =
      electrons * constants::kFaraday * a * conc_mm / (k_mm + conc_mm);
  const double j_rs =
      electrochem::randles_sevcik_density(
          electrons, d, Concentration::milli_molar(conc_mm), nu)
          .amps_per_m2() *
      enhancement;
  return transport::koutecky_levich(CurrentDensity::amps_per_m2(j_kin),
                                    CurrentDensity::amps_per_m2(j_rs))
             .amps_per_m2() *
         cv_peak_recovery();
}

/// Runs the real CalibrationEngine on a noiseless response model over the
/// standard series; returns (sensitivity canonical, detected range top mM).
/// `point_sigma_a` reproduces the noise allowance the engine will grant
/// the real (noisy, replicate-averaged) data, so the detected range here
/// predicts the detected range there.
std::pair<double, double> measure_model(const ResponseModel& model,
                                        Concentration low,
                                        Concentration high, Area area,
                                        double tolerance,
                                        double point_sigma_a) {
  const std::vector<Concentration> series = standard_series(low, high);
  std::vector<analysis::CalibrationPoint> points;
  points.reserve(series.size());
  for (const Concentration& c : series) {
    points.push_back(
        {c, model(c.milli_molar()) * area.square_meters()});
  }
  analysis::CalibrationOptions opts;
  opts.linearity_tolerance = tolerance;
  const analysis::CalibrationEngine engine(opts);
  const analysis::CalibrationResult r =
      engine.try_calibrate(points, 0.0, area, point_sigma_a).value();
  return {r.sensitivity.raw(), r.linear_range_high.milli_molar()};
}

/// Iterates (A, K) until the *detected* sensitivity and range match the
/// targets. `build` maps (A, K) to a response model.
std::pair<double, double> solve_two_knobs(
    const std::function<ResponseModel(double, double)>& build,
    double sigma_target, Concentration low, Concentration high, Area area,
    double tolerance, double point_sigma_a, double a_init, double k_init,
    const std::string& device) {
  double a = a_init;
  double k = k_init;
  const double r_target = high.milli_molar();

  for (int iter = 0; iter < 120; ++iter) {
    const auto [sigma, r_top] =
        measure_model(build(a, k), low, high, area, tolerance,
                      point_sigma_a);
    require<SpecError>(sigma > 0.0,
                       "inverse design produced a dead response: " + device);
    const double sigma_ratio = sigma_target / sigma;
    const double range_ratio = r_target / r_top;
    if (std::abs(sigma_ratio - 1.0) < 5e-4 &&
        std::abs(range_ratio - 1.0) < 5e-4) {
      return {a, k};
    }
    a *= std::clamp(sigma_ratio, 0.25, 4.0);
    // Detected range moves with K but is grid-quantized; damp the update.
    k *= std::clamp(std::pow(range_ratio, 0.7), 0.5, 2.0);
  }
  const auto [sigma, r_top] =
      measure_model(build(a, k), low, high, area, tolerance, point_sigma_a);
  require<SpecError>(
      std::abs(sigma / sigma_target - 1.0) < 0.02 &&
          std::abs(r_top / r_target - 1.0) < 0.15,
      "inverse design did not converge for " + device);
  return {a, k};
}

}  // namespace

std::vector<Concentration> standard_series(Concentration low,
                                           Concentration high) {
  require<SpecError>(high > low, "series needs high > low");
  std::vector<Concentration> out;
  out.reserve(13);
  const double lo = low.milli_molar();
  const double hi = high.milli_molar();
  for (int k = 0; k <= 8; ++k) {
    out.push_back(
        Concentration::milli_molar(lo + (hi - lo) * k / 8.0));
  }
  for (double f : {1.25, 1.5, 1.75, 2.0}) {
    out.push_back(Concentration::milli_molar(lo + (hi - lo) * f));
  }
  return out;
}

Sensitivity ca_transport_ceiling(int electrons, Diffusivity d,
                                 double delta_m) {
  return Sensitivity::canonical(electrons * constants::kFaraday *
                                d.m2_per_s() / delta_m);
}

void calibrate_to_figures(SensorSpec& spec, const PublishedFigures& figures,
                          const DesignContext& context) {
  electrode::Assembly& assembly = spec.assembly;
  const auto kin = assembly.enzyme.kinetics_for(assembly.substrate);
  require<SpecError>(kin.has_value(),
                     "enzyme lacks kinetics for " + assembly.substrate);

  const double sigma_target = figures.sensitivity.raw();
  require<SpecError>(sigma_target > 0.0, "target sensitivity must be > 0");
  const Area area = assembly.geometry.working_area;
  const Diffusivity d =
      chem::try_species(assembly.substrate).value()->diffusivity;
  const int electrons = kin->electrons;

  std::function<ResponseModel(double, double)> build;
  double noise_factor = context.ca_noise_factor;

  if (spec.technique == Technique::kChronoamperometry) {
    const double delta =
        transport::stirred_layer_thickness_m(context.stir_rate_rpm);
    const double ceiling =
        ca_transport_ceiling(electrons, d, delta).raw();
    require<SpecError>(
        sigma_target < 0.98 * ceiling,
        "target sensitivity exceeds the transport ceiling for " + spec.name);
    build = [=](double a, double k) {
      return [=](double c) {
        return ca_steady_density(a, k, electrons, d.m2_per_s(), delta, c);
      };
    };
  } else {
    const double enhancement = assembly.modification.area_enhancement;
    const ScanRate nu = spec.cv_scan_rate;
    const double rs_slope =
        electrochem::randles_sevcik_density(
            electrons, d, Concentration::milli_molar(1.0), nu)
            .amps_per_m2() *
        enhancement;
    require<SpecError>(
        sigma_target < 0.98 * rs_slope,
        "target sensitivity exceeds the porous-film Randles-Sevcik ceiling "
        "for " +
            spec.name);
    build = [=](double a, double k) {
      return [=](double c) {
        return cv_peak_density(a, k, electrons, d, enhancement, nu, c);
      };
    };
    noise_factor = context.cv_noise_factor;
  }

  // Initial guesses from the transport-free linearization.
  const double k_init = figures.range_high.milli_molar() *
                        (1.0 - context.linearity_tolerance) /
                        context.linearity_tolerance;
  const double a_init =
      sigma_target * k_init / (electrons * constants::kFaraday);

  // The noise allowance the real engine will grant each replicate-
  // averaged calibration point, anticipated from the target LOD (or from
  // the electrode's default noise when no LOD is published). The 1.4x
  // margin makes the first beyond-range grid point fail the real
  // (noisy) linearity check robustly instead of sitting on the edge.
  double expected_sigma = 0.0;
  if (figures.lod.has_value()) {
    expected_sigma = figures.lod->milli_molar() * sigma_target *
                     area.square_meters() / 3.0;
  } else {
    expected_sigma = noise_factor *
                     assembly.geometry.base_noise_per_mm2.amps() *
                     area.square_millimeters() *
                     assembly.modification.noise_multiplier;
  }
  const double point_sigma =
      1.4 * expected_sigma /
      std::sqrt(static_cast<double>(context.replicates));

  const auto [a, k] = solve_two_knobs(
      build, sigma_target, figures.range_low, figures.range_high, area,
      context.linearity_tolerance, point_sigma, a_init, k_init, spec.name);

  // Decompose A = Gamma_wired * k_cat into the assembly's loading knob.
  const double gamma_needed = a / kin->k_cat.per_second();
  const double per_monolayer =
      assembly.enzyme.monolayer_coverage().mol_per_m2() *
      assembly.modification.area_enhancement *
      assembly.immobilization.activity_retention *
      assembly.modification.transfer_efficiency;
  assembly.loading_monolayers = gamma_needed / per_monolayer;
  require<SpecError>(
      assembly.loading_monolayers <= assembly.immobilization.max_monolayers,
      "required enzyme loading (" +
          std::to_string(assembly.loading_monolayers) +
          " monolayers) exceeds the immobilization limit for " + spec.name);

  // Decompose K into the device km_tuning on top of the modification.
  assembly.km_tuning = k / (kin->k_m.milli_molar() *
                            assembly.modification.km_multiplier);

  // Noise: choose the electrode LF rms such that the measured blank sigma
  // yields the published LOD: sigma_blank = LOD * slope / 3.
  if (figures.lod.has_value()) {
    const double slope_a_per_mm = sigma_target * area.square_meters();
    const double sigma_needed =
        figures.lod->milli_molar() * slope_a_per_mm / 3.0;
    const double lf_needed = sigma_needed / noise_factor;
    const double base = assembly.geometry.base_noise_per_mm2.amps() *
                        area.square_millimeters() *
                        assembly.modification.noise_multiplier;
    assembly.noise_tuning = std::max(lf_needed / base, 1e-6);
  } else {
    assembly.noise_tuning = 1.0;
  }
}

}  // namespace biosens::core
