// F3 — calibration curves: current (or peak height) vs concentration for
// every platform sensor, with the fitted linear region. These are the
// curves behind every Table 2 row ("calibration curves can be plotted",
// Section 3.1).
#include "bench_util.hpp"

#include "core/platform.hpp"

namespace {

using namespace biosens;

void print_figure() {
  bench::print_banner("Figure F3",
                      "calibration curves of the seven platform sensors");
  Rng rng(2012);
  const core::CalibrationProtocol protocol;

  for (const core::CatalogEntry& entry : core::platform_entries()) {
    const core::BiosensorModel sensor(entry.spec);
    const auto series = core::standard_series(entry.published.range_low,
                                              entry.published.range_high);
    const core::ProtocolOutcome outcome =
        protocol.try_run(sensor, series, rng).value();

    std::printf("\n%s — %s\n", entry.spec.target.c_str(),
                std::string(core::to_string(entry.spec.technique)).c_str());
    std::printf("  conc        | response     | fit          | in linear "
                "region\n");
    for (std::size_t i = 0; i < outcome.points.size(); ++i) {
      const auto& p = outcome.points[i];
      std::printf("  %-11s | %-12s | %-12s | %s\n",
                  to_string(p.concentration).c_str(),
                  to_string(Current::amps(p.response_a)).c_str(),
                  to_string(Current::amps(outcome.result.fit.predict(
                                p.concentration.milli_molar())))
                      .c_str(),
                  i < outcome.result.points_in_linear_region ? "yes" : "no");
    }
    std::printf(
        "  => sensitivity %.2f uA/mM/cm^2, range %g-%g mM, LOD %s, "
        "R^2 %.4f\n",
        outcome.result.sensitivity.micro_amp_per_milli_molar_cm2(),
        outcome.result.linear_range_low.milli_molar(),
        outcome.result.linear_range_high.milli_molar(),
        to_string(outcome.result.lod).c_str(),
        outcome.result.fit.r_squared);
  }
}

void BM_FullPlatformCalibration(benchmark::State& state) {
  core::Platform platform = core::Platform::paper_platform();
  for (auto _ : state) {
    Rng rng(1);
    core::ProtocolOptions options;
    options.blank_repeats = 4;
    options.replicates = 1;
    platform.try_calibrate_all(rng, options).value();
  }
}
BENCHMARK(BM_FullPlatformCalibration)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  return biosens::bench::run_timings(argc, argv);
}
