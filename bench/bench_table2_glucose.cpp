// Table 2, GLUCOSE section — comparison of electrochemical enzyme-based
// glucose biosensors. Every row is *measured* end-to-end: the calibrated
// physical device model is swept over its concentration series, the
// readout chain digitizes the traces, and the calibration engine extracts
// sensitivity / linear range / LOD.
//
// Paper claim to reproduce: "our biosensor shows the best performance for
// both sensitivity and limit of detection" (Section 3.2.1).
#include "bench_util.hpp"

namespace {

using namespace biosens;

void BM_GlucoseCalibration(benchmark::State& state) {
  const core::CatalogEntry entry =
      core::try_entry("MWCNT/Nafion + GOD (this work)").value();
  const core::BiosensorModel sensor(entry.spec);
  const core::CalibrationProtocol protocol;
  const auto series = core::standard_series(entry.published.range_low,
                                            entry.published.range_high);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol.try_run(sensor, series, rng).value());
  }
}
BENCHMARK(BM_GlucoseCalibration)->Unit(benchmark::kMillisecond);

void BM_GlucoseSingleMeasurement(benchmark::State& state) {
  const core::CatalogEntry entry =
      core::try_entry("MWCNT/Nafion + GOD (this work)").value();
  const core::BiosensorModel sensor(entry.spec);
  const chem::Sample sample =
      chem::calibration_sample("glucose", Concentration::milli_molar(0.5));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sensor.try_measure(sample, rng).value());
  }
}
BENCHMARK(BM_GlucoseSingleMeasurement)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::print_banner("Table 2 / GLUCOSE",
                      "CNT-based glucose biosensors, measured vs published");
  Rng rng(2012);
  std::vector<bench::Row> rows;
  for (const core::CatalogEntry& e : core::glucose_entries()) {
    rows.push_back(bench::measure_entry(e, rng));
  }
  bench::print_table2_section("GLUCOSE", rows);

  // The section's comparative claim.
  const bench::Row& ours = rows.back();
  bool best_sens = true, best_lod = true;
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
    if (rows[i].measured.sensitivity >= ours.measured.sensitivity) {
      best_sens = false;
    }
    if (rows[i].published.lod.has_value() &&
        rows[i].measured.lod <= ours.measured.lod) {
      best_lod = false;
    }
  }
  std::printf(
      "\nclaim check — platform sensor best in sensitivity: %s, best in "
      "LOD: %s\n",
      best_sens ? "YES" : "no", best_lod ? "YES" : "no");

  return bench::run_timings(argc, argv);
}
