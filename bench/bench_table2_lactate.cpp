// Table 2, LACTATE section — comparison of lactate biosensors.
//
// Paper claims to reproduce (Section 3.2.2): the N-doped CNT device [16]
// is more sensitive than ours, but its linear range (0.014-0.325 mM) is
// too narrow for physiological lactate; the CNT-paste electrode [41] is
// two orders of magnitude less sensitive.
#include "bench_util.hpp"

#include "transport/diffusion.hpp"

namespace {

using namespace biosens;

void BM_LactateCalibration(benchmark::State& state) {
  const core::CatalogEntry entry =
      core::try_entry("MWCNT/Nafion + LOD (this work)").value();
  const core::BiosensorModel sensor(entry.spec);
  const core::CalibrationProtocol protocol;
  const auto series = core::standard_series(entry.published.range_low,
                                            entry.published.range_high);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol.try_run(sensor, series, rng).value());
  }
}
BENCHMARK(BM_LactateCalibration)->Unit(benchmark::kMillisecond);

void BM_DiffusionSolverStep(benchmark::State& state) {
  transport::DiffusionField field(
      Diffusivity::cm2_per_s(1e-5),
      transport::DiffusionGrid{25e-6, static_cast<std::size_t>(state.range(0))},
      Concentration::milli_molar(1.0));
  const auto sink = [](double c0) { return 1e-6 * c0 / (0.7 + c0); };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        field.step_reactive_surface(Time::milliseconds(25.0), sink));
  }
}
BENCHMARK(BM_DiffusionSolverStep)->Arg(40)->Arg(80)->Arg(160);

}  // namespace

int main(int argc, char** argv) {
  bench::print_banner("Table 2 / LACTATE",
                      "lactate biosensors, measured vs published");
  Rng rng(2012);
  std::vector<bench::Row> rows;
  for (const core::CatalogEntry& e : core::lactate_entries()) {
    rows.push_back(bench::measure_entry(e, rng));
  }
  bench::print_table2_section("LACTATE", rows);

  const bench::Row& ours = rows.back();
  const bench::Row& ndoped = rows[3];  // [16]
  const bench::Row& paste = rows[0];   // [41]
  std::printf(
      "\nclaim checks —\n"
      "  [16] more sensitive than ours: %s (%.1f vs %.1f uA/mM/cm2)\n"
      "  [16] range too narrow for physiological lactate (0.5-2.2 mM): %s "
      "(top %.3f mM)\n"
      "  ours covers it: %s (top %.2f mM)\n"
      "  [41] paste ~100x less sensitive than ours: %s (ratio %.0f)\n",
      ndoped.measured.sensitivity > ours.measured.sensitivity ? "YES" : "no",
      ndoped.measured.sensitivity.micro_amp_per_milli_molar_cm2(),
      ours.measured.sensitivity.micro_amp_per_milli_molar_cm2(),
      ndoped.measured.linear_range_high < Concentration::milli_molar(0.5)
          ? "YES"
          : "no",
      ndoped.measured.linear_range_high.milli_molar(),
      ours.measured.linear_range_high >= Concentration::milli_molar(0.9)
          ? "YES"
          : "no",
      ours.measured.linear_range_high.milli_molar(),
      ours.measured.sensitivity / paste.measured.sensitivity > 50.0
          ? "YES"
          : "no",
      ours.measured.sensitivity / paste.measured.sensitivity);

  return bench::run_timings(argc, argv);
}
