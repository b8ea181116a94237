// Extension E1 — differential pulse voltammetry vs cyclic voltammetry on
// the same CYP device.
//
// The survey (Section 2.3, ref [32]) uses DPV for cyclophosphamide; the
// platform's own CYP sensors use CV. This bench measures the same
// calibrated cyclophosphamide electrode with both techniques and
// compares blank noise, sensitivity, and the resulting detection limits
// — the textbook result that the pulse subtraction buys roughly an order
// of magnitude in LOD.
#include "bench_util.hpp"

#include "common/stats.hpp"

namespace {

using namespace biosens;

struct TechniqueResult {
  const char* technique;
  double slope_a_per_mm = 0.0;
  double blank_sigma_a = 0.0;
  double lod_um = 0.0;
};

TechniqueResult measure_with(core::Technique technique, Rng& rng) {
  core::CatalogEntry entry =
      core::try_entry("MWCNT + CYP (cyclophosphamide)").value();
  core::SensorSpec spec = entry.spec;
  spec.technique = technique;
  const core::BiosensorModel sensor(spec);

  const core::CalibrationProtocol protocol;
  const auto outcome = protocol.try_run(
      sensor,
      core::standard_series(entry.published.range_low,
                            entry.published.range_high),
      rng).value();

  TechniqueResult result;
  result.technique =
      technique == core::Technique::kCyclicVoltammetry ? "CV" : "DPV";
  result.slope_a_per_mm = outcome.result.fit.slope;
  result.blank_sigma_a =
      analysis::blank_sigma(outcome.blank_responses_a);
  result.lod_um = outcome.result.lod.micro_molar();
  return result;
}

void BM_DpvTraceSimulation(benchmark::State& state) {
  const core::CatalogEntry entry =
      core::try_entry("MWCNT + CYP (cyclophosphamide)").value();
  const electrode::EffectiveLayer layer =
      electrode::try_synthesize(entry.spec.assembly).value();
  const chem::Sample sample = chem::calibration_sample(
      "cyclophosphamide", Concentration::micro_molar(40.0));
  for (auto _ : state) {
    electrochem::Cell cell(layer, sample);
    benchmark::DoNotOptimize(
        electrochem::DifferentialPulseSim(std::move(cell),
                                          electrochem::standard_cyp_dpv())
            .try_run().value());
  }
}
BENCHMARK(BM_DpvTraceSimulation);

}  // namespace

int main(int argc, char** argv) {
  bench::print_banner(
      "Extension E1",
      "CV vs DPV on the cyclophosphamide sensor (survey ref [32])");

  Rng rng(2012);
  const TechniqueResult cv =
      measure_with(core::Technique::kCyclicVoltammetry, rng);
  const TechniqueResult dpv =
      measure_with(core::Technique::kDifferentialPulseVoltammetry, rng);

  std::printf("\n%-10s | %-18s | %-18s | %-10s\n", "technique",
              "slope [uA/mM]", "blank sigma [nA]", "LOD [uM]");
  std::printf(
      "-----------+--------------------+--------------------+-----------\n");
  for (const TechniqueResult& r : {cv, dpv}) {
    std::printf("%-10s | %18.2f | %18.2f | %10.2f\n", r.technique,
                r.slope_a_per_mm * 1e6, r.blank_sigma_a * 1e9, r.lod_um);
  }
  std::printf(
      "\nreading: the pulse/base subtraction cancels the low-frequency\n"
      "electrode background (blank sigma drops ~%.0fx); even though the\n"
      "differential slope is lower than the CV peak slope, the noise\n"
      "reduction nets a ~%.1fx LOD improvement. The platform keeps CV for\n"
      "its richer hysteresis diagnostics (Section 3.1), but DPV is the\n"
      "better trace-level quantifier — as the DNA-based CP sensor [32]\n"
      "already exploited.\n",
      cv.blank_sigma_a / dpv.blank_sigma_a, cv.lod_um / dpv.lod_um);

  return bench::run_timings(argc, argv);
}
