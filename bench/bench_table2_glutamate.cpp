// Table 2, GLUTAMATE section — comparison of glutamate biosensors.
//
// Paper claims to reproduce (Section 3.2.3): literature devices are up to
// three orders of magnitude more sensitive, but our sensor exploits the
// widest linear range (0-2 mM), "useful for some particular applications
// like cell culture monitoring".
#include "bench_util.hpp"

namespace {

using namespace biosens;

void BM_GlutamateCalibration(benchmark::State& state) {
  const core::CatalogEntry entry =
      core::try_entry("MWCNT/Nafion + GlOD (this work)").value();
  const core::BiosensorModel sensor(entry.spec);
  const core::CalibrationProtocol protocol;
  const auto series = core::standard_series(entry.published.range_low,
                                            entry.published.range_high);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol.try_run(sensor, series, rng).value());
  }
}
BENCHMARK(BM_GlutamateCalibration)->Unit(benchmark::kMillisecond);

void BM_InverseDesign(benchmark::State& state) {
  for (auto _ : state) {
    // Re-derive the platform glutamate sensor's physical parameters from
    // its published figures — the design-time cost of adding a target.
    state.PauseTiming();
    core::CatalogEntry entry =
        core::try_entry("MWCNT/Nafion + GlOD (this work)").value();
    core::SensorSpec spec = entry.spec;
    state.ResumeTiming();
    core::calibrate_to_figures(spec, entry.published);
    benchmark::DoNotOptimize(spec);
  }
}
BENCHMARK(BM_InverseDesign)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::print_banner("Table 2 / GLUTAMATE",
                      "glutamate biosensors, measured vs published");
  Rng rng(2012);
  std::vector<bench::Row> rows;
  for (const core::CatalogEntry& e : core::glutamate_entries()) {
    rows.push_back(bench::measure_entry(e, rng));
  }
  bench::print_table2_section("GLUTAMATE", rows);

  const bench::Row& ours = rows.back();
  const bench::Row& pu = rows[2];  // [1]
  bool widest = true;
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
    if (rows[i].measured.linear_range_high >=
        ours.measured.linear_range_high) {
      widest = false;
    }
  }
  std::printf(
      "\nclaim checks —\n"
      "  [1] orders of magnitude more sensitive: %s (%.0fx)\n"
      "  ours has the widest linear range: %s (top %.2f mM)\n",
      pu.measured.sensitivity / ours.measured.sensitivity > 100.0 ? "YES"
                                                                  : "no",
      pu.measured.sensitivity / ours.measured.sensitivity,
      widest ? "YES" : "no",
      ours.measured.linear_range_high.milli_molar());

  return bench::run_timings(argc, argv);
}
