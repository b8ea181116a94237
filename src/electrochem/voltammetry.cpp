#include "electrochem/voltammetry.hpp"

#include <algorithm>
#include <cmath>

#include "common/annotations.hpp"
#include "common/constants.hpp"
#include "common/error.hpp"
#include "obs/span.hpp"
#include "transport/analytic.hpp"

namespace biosens::electrochem {
namespace {

/// Normalized Laviron peak shape: 4*e^x/(1+e^x)^2, equal to 1 at x = 0.
double laviron_shape(double x) {
  const double e = std::exp(-std::abs(x));
  const double denom = 1.0 + e;
  return 4.0 * e / (denom * denom);
}

}  // namespace

CyclicSweep standard_cyp_sweep(ScanRate rate) {
  return CyclicSweep(Potential::millivolts(200.0),
                     Potential::millivolts(-600.0), rate);
}

CurrentDensity randles_sevcik_density(int electrons, Diffusivity d,
                                      Concentration c, ScanRate nu) {
  require<SpecError>(electrons > 0, "electron count must be positive");
  const double n = electrons;
  const double f_over_rt =
      constants::kFaraday /
      (constants::kGasConstant * constants::kRoomTemperatureK);
  const double j = 0.446 * n * constants::kFaraday * c.milli_molar() *
                   std::sqrt(n * f_over_rt * nu.volts_per_second() *
                             d.m2_per_s());
  return CurrentDensity::amps_per_m2(j);
}

VoltammetrySim::VoltammetrySim(Cell cell, CyclicSweep waveform,
                               VoltammetryOptions options)
    : cell_(std::move(cell)), waveform_(waveform), options_(options) {
  require<SpecError>(options.points_per_sweep >= 16,
                     "too few points per sweep");
}

Potential VoltammetrySim::peak_separation() const {
  // Laviron (alpha = 0.5): reversible below the critical rate, then the
  // peaks split logarithmically with nu / k_s.
  const double nu = waveform_.rate().volts_per_second();
  const double ks = cell_.layer().electron_transfer_rate.per_second();
  const double n = cell_.layer().electrons;
  const double rt_over_nf =
      constants::kGasConstant * constants::kRoomTemperatureK /
      (n * constants::kFaraday);
  const double m = rt_over_nf * ks / nu;  // dimensionless rate ratio
  if (m >= 1.0) return Potential::volts(0.0);
  constexpr double kAlpha = 0.5;
  return Potential::volts(rt_over_nf / kAlpha * std::log(1.0 / m));
}

CurrentDensity VoltammetrySim::catalytic_peak_density(
    const chem::MichaelisMenten& kin, Concentration c) const {
  const electrode::EffectiveLayer& layer = cell_.layer();
  const CurrentDensity j_kin = layer.catalytic_current_density(kin, c);
  // Porous CNT films expose `area_enhancement` times more electroactive
  // area to the diffusive wave than a planar electrode.
  const CurrentDensity j_transport = CurrentDensity::amps_per_m2(
      randles_sevcik_density(layer.electrons, layer.substrate_diffusivity, c,
                             waveform_.rate())
          .amps_per_m2() *
      layer.area_enhancement);
  return transport::koutecky_levich(j_kin, j_transport);
}

BIOSENS_HOT Expected<Voltammogram> VoltammetrySim::try_run() const {
  obs::ObsSpan span(Layer::kElectrochem, "cv-sweep");
  const electrode::EffectiveLayer& layer = cell_.layer();
  // Pre-flight the fallible ingredients once so the per-point loop below
  // can use the plain accessors without exceptions sneaking back in.
  if (auto v = span.watch(chem::try_validate_species(cell_.sample())); !v) {
    return ctx("voltammetry", Expected<Voltammogram>(v.error()));
  }
  auto kin = span.watch(layer.try_kinetics());
  if (!kin) {
    return ctx("voltammetry", Expected<Voltammogram>(kin.error()));
  }
  BIOSENS_EXPECT(layer.electrons > 0, ErrorCode::kSpec, Layer::kElectrochem,
                 "voltammetry", "electron count must be positive");
  for (const electrode::CrossActivity& cross : layer.secondary) {
    BIOSENS_EXPECT(cross.electrons > 0, ErrorCode::kSpec,
                   Layer::kElectrochem, "voltammetry",
                   "cross-activity electron count must be positive: " +
                       cross.substrate);
  }
  auto activity = span.watch(cell_.try_environment_factor());
  if (!activity) {
    return ctx("voltammetry", Expected<Voltammogram>(activity.error()));
  }

  const double n = layer.electrons;
  const double f_over_rt =
      constants::kFaraday /
      (constants::kGasConstant * constants::kRoomTemperatureK);

  // Surface-redox peak magnitude (Laviron): n^2 F^2 nu A Gamma / (4RT).
  const double nu = waveform_.rate().volts_per_second();
  const double area = layer.geometric_area.square_meters();
  const double gamma = layer.wired_coverage.mol_per_m2();
  const double redox_peak = n * n * constants::kFaraday * f_over_rt * nu *
                            area * gamma / 4.0;

  const double separation = peak_separation().volts();
  const double e0 = layer.formal_potential.volts();
  const double e_anodic = e0 + 0.5 * separation;
  const double e_cathodic = e0 - 0.5 * separation;

  // Catalytic (EC') cathodic enhancement, peak-shaped because the low-
  // concentration substrate is depleted as the wave passes. Cross-
  // reactive substrates of the same enzyme contribute their own
  // (weaker) catalytic currents; the whole term scales with the
  // enzyme's activity under the sample's O2/pH/temperature.
  double catalytic =
      catalytic_peak_density(*kin, cell_.substrate_bulk()).amps_per_m2() *
      area;
  for (const electrode::CrossActivity& cross : layer.secondary) {
    const Concentration c =
        cell_.sample().concentration_of(cross.substrate);
    if (c.milli_molar() <= 0.0) continue;
    const double j_kin = cross.electrons * constants::kFaraday *
                         layer.wired_coverage.mol_per_m2() *
                         cross.k_cat.per_second() * c.milli_molar() /
                         (cross.k_m_app.milli_molar() + c.milli_molar());
    const double j_rs =
        randles_sevcik_density(cross.electrons, cross.diffusivity, c,
                               waveform_.rate())
            .amps_per_m2() *
        layer.area_enhancement;
    catalytic += transport::koutecky_levich(
                     CurrentDensity::amps_per_m2(j_kin),
                     CurrentDensity::amps_per_m2(j_rs))
                     .amps_per_m2() *
                 area;
  }
  catalytic *= *activity;

  // Hoist the interferent species/registry lookups out of the sweep
  // loop: per point only the sigmoid gates are evaluated.
  std::vector<InterferentTerm> interferent_terms;
  if (options_.include_interferents) {
    auto terms = span.watch(cell_.try_interferent_terms());
    if (!terms) {
      return ctx("voltammetry", Expected<Voltammogram>(terms.error()));
    }
    interferent_terms = *std::move(terms);
  }

  const Time half = waveform_.half_period();
  const std::size_t per_sweep = options_.points_per_sweep;

  Voltammogram vg;
  vg.potential_v.reserve(2 * per_sweep);
  vg.current_a.reserve(2 * per_sweep);
  vg.turning_index = per_sweep;

  const std::size_t total = 2 * per_sweep;
  for (std::size_t k = 0; k < total; ++k) {
    const Time t = Time::seconds(2.0 * half.seconds() *
                                 static_cast<double>(k) /
                                 static_cast<double>(total - 1));
    const Potential e = waveform_.at(t);
    const ScanRate slope = waveform_.slope_at(t);
    const bool cathodic_sweep = slope.volts_per_second() < 0.0;

    double i = 0.0;
    if (options_.include_capacitive) {
      i += cell_.capacitive_sweep_current(slope).amps();
    }
    if (options_.include_interferents) {
      i += cell_.interferent_current_amps(interferent_terms, e.volts());
    }
    if (cathodic_sweep) {
      const double x = n * f_over_rt * (e.volts() - e_cathodic);
      i -= (redox_peak + catalytic) * laviron_shape(x);
    } else {
      const double x = n * f_over_rt * (e.volts() - e_anodic);
      i += redox_peak * laviron_shape(x);
    }
    vg.push(e.volts(), i);
  }
  return vg;
}

}  // namespace biosens::electrochem
