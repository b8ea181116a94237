// Cell-culture monitoring: the application behind the platform's oxidase
// sensors ([4], [5] — "lactate and glucose monitoring in cell culture",
// "targeting of multiple metabolites in neural cells").
//
// A simulated neural culture consumes glucose and produces lactate over
// 48 hours, with a glutamate excursion after a stimulation event at 24 h.
// The three-sensor chip panel samples the medium every 4 hours; this
// example prints the reconstructed time courses against the ground truth.
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/platform.hpp"

namespace {

// Simple metabolic model of the culture medium.
struct CultureState {
  double glucose_mm = 5.0;    // starting medium glucose
  double lactate_mm = 0.2;
  double glutamate_mm = 0.02;

  // Advances the culture by dt hours. Glycolysis converts glucose to
  // lactate (~2:1); a stimulation at t = 24 h releases glutamate which
  // is then cleared first-order.
  void advance(double t_h, double dt_h) {
    const double uptake = 0.08 * dt_h * glucose_mm / (glucose_mm + 1.0);
    glucose_mm = std::max(glucose_mm - uptake, 0.0);
    lactate_mm += 1.7 * uptake;
    if (t_h <= 24.0 && t_h + dt_h > 24.0) glutamate_mm += 0.25;
    glutamate_mm *= std::exp(-0.15 * dt_h);
  }
};

}  // namespace

int main() {
  using namespace biosens;

  // The chip carries the three oxidase sensors of Table 1; all three run
  // concurrently on one 5-channel microfabricated die.
  core::Platform chip;
  chip.add_sensor(core::try_entry("MWCNT/Nafion + GOD (this work)").value());
  chip.add_sensor(core::try_entry("MWCNT/Nafion + LOD (this work)").value());
  chip.add_sensor(core::try_entry("MWCNT/Nafion + GlOD (this work)").value());

  Rng rng(4242);
  chip.try_calibrate_all(rng).value();
  std::printf(
      "chip calibrated: %zu sensors, panel time %.0f s, sample need %s\n\n",
      chip.sensor_count(), chip.scheduled_panel_time().seconds(),
      to_string(chip.try_assay(chem::blank_sample(), rng)
                    .value()
                    .sample_volume_required)
          .c_str());

  std::printf(
      "  t[h] | glucose true/est [mM] | lactate true/est [mM] | "
      "glutamate true/est [uM]\n");
  std::printf(
      "  -----+-----------------------+-----------------------+-----------"
      "--------------\n");

  CultureState culture;
  for (double t = 0.0; t <= 48.0; t += 4.0) {
    chem::Sample medium = chem::blank_sample();
    medium.set("glucose", Concentration::milli_molar(culture.glucose_mm));
    medium.set("lactate", Concentration::milli_molar(culture.lactate_mm));
    medium.set("glutamate",
               Concentration::milli_molar(culture.glutamate_mm));

    // Two aliquots, as in the lab: a 1:10 dilution brings glucose and
    // lactate into their 0-1 mM linear ranges; glutamate (uM-level) is
    // assayed undiluted so it stays above the sensor's LOD.
    chem::Sample diluted = medium;
    diluted.dilute(10.0);

    const core::PanelReport diluted_report =
        chip.try_assay(diluted, rng).value();
    const core::PanelReport neat_report = chip.try_assay(medium, rng).value();
    const double glucose_est =
        diluted_report.try_for_target("glucose").value()->estimated
            .milli_molar() *
        10.0;
    const double lactate_est =
        diluted_report.try_for_target("lactate").value()->estimated
            .milli_molar() *
        10.0;
    const double glutamate_est = neat_report.try_for_target("glutamate")
                                     .value()
                                     ->estimated.micro_molar();

    std::printf("  %4.0f | %8.2f / %-10.2f | %8.2f / %-10.2f | %8.1f / %-10.1f\n",
                t, culture.glucose_mm, glucose_est, culture.lactate_mm,
                lactate_est, culture.glutamate_mm * 1e3, glutamate_est);

    culture.advance(t, 4.0);
  }

  std::printf(
      "\nnote: the glutamate spike after the 24 h stimulation and the\n"
      "glucose->lactate conversion are both resolved by the panel.\n");
  return 0;
}
