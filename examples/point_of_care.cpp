// Point-of-care robustness: what happens when the sample is not
// calibration buffer.
//
// A point-of-care reading (Section 1: "optimized treatments and
// follow-up therapies can be easily tuned by using point-of-care
// devices") faces three realities this example walks through with the
// library's models:
//   1. serum interferents  -> differential referencing on the chip,
//   2. hypoxic venous samples -> the oxidase O2 dependence,
//   3. body-temperature samples -> Arrhenius gain, compensated by a
//      one-point recalibration.
#include <cstdio>

#include "chem/environment.hpp"
#include "core/catalog.hpp"
#include "core/differential.hpp"
#include "core/protocol.hpp"
#include "core/stability.hpp"

int main() {
  using namespace biosens;

  const core::CatalogEntry entry =
      core::try_entry("MWCNT/Nafion + GOD (this work)").value();
  const core::DifferentialSensor pair(entry.spec);
  Rng rng(2026);

  // Two-point clean calibration of the differential channel.
  const double blank = pair.ideal_differential_a(chem::blank_sample());
  const double top = pair.ideal_differential_a(chem::calibration_sample(
      "glucose", Concentration::milli_molar(0.5)));
  const double slope = (top - blank) / 0.5;
  const auto estimate = [&](const chem::Sample& s) {
    return (pair.measure_differential_a(s, rng) - blank) / slope;
  };

  const Concentration truth = Concentration::milli_molar(0.45);
  std::printf("true glucose in every scenario: %s\n\n",
              to_string(truth).c_str());

  // 1. Serum matrix: single-ended vs differential.
  const chem::Sample serum = chem::serum_sample("glucose", truth);
  const core::BiosensorModel single(entry.spec);
  const double single_read =
      (single.try_measure(serum, rng).value().response_a -
       single.ideal_response_a(chem::blank_sample())) /
      slope;
  std::printf("1) serum sample\n");
  std::printf("   single-ended estimate: %6.2f mM  (interferent bias)\n",
              single_read);
  std::printf("   differential estimate: %6.2f mM\n\n", estimate(serum));

  // 2. Hypoxic venous sample: the oxidase starves for its co-substrate.
  chem::Sample venous = chem::serum_sample("glucose", truth);
  venous.set_dissolved_oxygen(Concentration::micro_molar(40.0));
  const double venous_read = estimate(venous);
  const double o2_factor = chem::try_relative_activity(
      entry.spec.assembly.enzyme.environment, venous.buffer(),
      venous.dissolved_oxygen()).value();
  std::printf("2) hypoxic venous sample (40 uM O2)\n");
  std::printf("   raw estimate:          %6.2f mM  (under-reads)\n",
              venous_read);
  std::printf("   model O2 factor:       %6.2f -> corrected %5.2f mM\n\n",
              o2_factor, venous_read / o2_factor);

  // 3. Body-temperature sample: Arrhenius gain, fixed by a one-point
  //    recalibration with a 0.25 mM standard at the same temperature.
  chem::Buffer body;
  body.temperature = Temperature::celsius(37.0);
  chem::Sample warm(body);
  warm.set("glucose", truth);
  const double warm_read = estimate(warm);

  chem::Sample standard(body);
  standard.set("glucose", Concentration::milli_molar(0.25));
  const double standard_reading =
      pair.measure_differential_a(standard, rng) - blank;
  const double corrected_slope = core::compensated_slope(
      slope, standard_reading, slope * 0.25);
  std::printf("3) sample at 37 degC\n");
  std::printf("   raw estimate:          %6.2f mM  (Arrhenius gain)\n",
              warm_read);
  std::printf("   after one-point recal: %6.2f mM\n",
              (pair.measure_differential_a(warm, rng) - blank) /
                  corrected_slope);
  return 0;
}
