// Quickstart: build the paper's glucose sensor, calibrate it, and
// quantify an unknown sample.
//
//   $ ./quickstart
//
// Walks the full public API in ~50 lines: catalog -> BiosensorModel ->
// CalibrationProtocol -> figures of merit -> single-sample assay.
#include <cstdio>

#include "core/catalog.hpp"
#include "core/protocol.hpp"

int main() {
  using namespace biosens;

  // 1. Pull the paper's glucose sensor (Table 2, "this work" row):
  //    microfabricated Au electrode, MWCNT/Nafion film, adsorbed GOD.
  const core::CatalogEntry entry =
      core::try_entry("MWCNT/Nafion + GOD (this work)").value();
  const core::BiosensorModel sensor(entry.spec);

  std::printf("sensor:     %s\n", entry.spec.name.c_str());
  std::printf("electrode:  %s, %s\n",
              entry.spec.assembly.geometry.name.c_str(),
              to_string(sensor.electrode_area()).c_str());
  std::printf("probe:      %s (%s)\n",
              entry.spec.assembly.enzyme.name.c_str(),
              std::string(
                  chem::to_string(entry.spec.assembly.enzyme.family))
                  .c_str());
  std::printf("technique:  %s\n\n",
              std::string(core::to_string(entry.spec.technique)).c_str());

  // 2. Calibrate over the standard series (blanks + replicates included).
  Rng rng(2012);  // deterministic: same numbers on every run
  const core::CalibrationProtocol protocol;
  const auto series = core::standard_series(entry.published.range_low,
                                            entry.published.range_high);
  const core::ProtocolOutcome outcome =
      protocol.try_run(sensor, series, rng).value();
  const analysis::CalibrationResult& cal = outcome.result;

  std::printf("calibration (measured vs paper Table 2):\n");
  std::printf("  sensitivity  %7.1f uA/mM/cm^2   (paper: 55.5)\n",
              cal.sensitivity.micro_amp_per_milli_molar_cm2());
  std::printf("  linear range %s - %s            (paper: 0 - 1 mM)\n",
              to_string(cal.linear_range_low).c_str(),
              to_string(cal.linear_range_high).c_str());
  std::printf("  LOD          %s                 (paper: 2 uM)\n\n",
              to_string(cal.lod).c_str());

  // 3. Quantify an "unknown" — a hyperglycemic serum sample.
  const Concentration truth = Concentration::milli_molar(0.65);
  const chem::Sample unknown = chem::calibration_sample("glucose", truth);
  const double response = sensor.try_measure(unknown, rng).value().response_a;
  const Concentration estimate = Concentration::milli_molar(
      (response - cal.fit.intercept) / cal.fit.slope);

  std::printf("unknown sample:\n");
  std::printf("  response   %s\n", to_string(Current::amps(response)).c_str());
  std::printf("  estimated  %s   (true: %s)\n",
              to_string(estimate).c_str(), to_string(truth).c_str());
  return 0;
}
