// Table 2, CYP section — the four drug / fatty-acid sensors (arachidonic
// acid, cyclophosphamide, ifosfamide, Ftorafur), detected by cyclic
// voltammetry on MWCNT-modified screen-printed electrodes.
//
// Paper claims to reproduce (Section 3.2.4): sub-uM to few-uM detection
// limits inside the drugs' therapeutic windows, with arachidonic acid the
// most sensitive assay — "the first time electrochemical biosensors based
// on MWCNT and CYP are used for the detection of the aforementioned
// compounds".
#include "bench_util.hpp"

#include "electrochem/voltammetry.hpp"

namespace {

using namespace biosens;

void BM_CypCalibration(benchmark::State& state) {
  const core::CatalogEntry entry =
      core::try_entry("MWCNT + CYP (cyclophosphamide)").value();
  const core::BiosensorModel sensor(entry.spec);
  const core::CalibrationProtocol protocol;
  const auto series = core::standard_series(entry.published.range_low,
                                            entry.published.range_high);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol.try_run(sensor, series, rng).value());
  }
}
BENCHMARK(BM_CypCalibration)->Unit(benchmark::kMillisecond);

void BM_VoltammogramSimulation(benchmark::State& state) {
  const core::CatalogEntry entry =
      core::try_entry("MWCNT + CYP (cyclophosphamide)").value();
  const electrode::EffectiveLayer layer =
      electrode::try_synthesize(entry.spec.assembly).value();
  const chem::Sample sample = chem::calibration_sample(
      "cyclophosphamide", Concentration::micro_molar(40.0));
  for (auto _ : state) {
    electrochem::Cell cell(layer, sample);
    const electrochem::VoltammetrySim sim(std::move(cell),
                                          electrochem::standard_cyp_sweep());
    benchmark::DoNotOptimize(sim.try_run().value());
  }
}
BENCHMARK(BM_VoltammogramSimulation);

}  // namespace

int main(int argc, char** argv) {
  bench::print_banner(
      "Table 2 / CYP",
      "CYP-based drug & fatty-acid sensors, measured vs published");
  Rng rng(2012);
  std::vector<bench::Row> rows;
  for (const core::CatalogEntry& e : core::cyp_entries()) {
    rows.push_back(bench::measure_entry(e, rng));
  }
  bench::print_table2_section("CYP (drugs & fatty acid)", rows);

  bool lods_ok = true;
  for (const bench::Row& r : rows) {
    if (r.measured.lod > Concentration::micro_molar(4.0)) lods_ok = false;
  }
  std::printf(
      "\nclaim checks —\n"
      "  all four LODs at or below a few uM (therapeutic windows): %s\n"
      "  arachidonic acid is the most sensitive CYP assay: %s\n",
      lods_ok ? "YES" : "no",
      (rows[0].measured.sensitivity > rows[1].measured.sensitivity &&
       rows[0].measured.sensitivity > rows[2].measured.sensitivity &&
       rows[0].measured.sensitivity > rows[3].measured.sensitivity)
          ? "YES"
          : "no");

  return bench::run_timings(argc, argv);
}
