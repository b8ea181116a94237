// Extension E3 — the multi-panel serum scenario of [9]: several drugs in
// one serum sample, measured by the CYP isoform panel.
//
// Isoform cross-reactivity (CYP2B6 sees some ifosfamide, CYP3A4 some
// cyclophosphamide) biases naive per-sensor readings whenever the
// sibling drug is present; linear unmixing with the characterized
// cross-sensitivity matrix recovers both. Also runs the population-level
// therapy study behind the Section 1 "20-50% of patients" motivation.
#include "bench_util.hpp"

#include "core/deconvolution.hpp"
#include "core/therapy.hpp"
#include "core/workloads.hpp"

namespace {

using namespace biosens;

void print_cocktail_study() {
  std::printf("\n(a) two-drug cocktails through the CYP panel [9]\n");
  const core::BiosensorModel cp(
      core::try_entry("MWCNT + CYP (cyclophosphamide)").value().spec);
  const core::BiosensorModel ifos(
      core::try_entry("MWCNT + CYP (ifosfamide)").value().spec);
  const core::PanelModel model = core::characterize_panel(
      {&cp, &ifos},
      {Concentration::micro_molar(40.0), Concentration::micro_molar(80.0)});

  std::printf(
      "cross-sensitivity matrix [uA/mM]   (rows: sensors, cols: drugs)\n");
  for (std::size_t i = 0; i < 2; ++i) {
    std::printf("  %-18s | %8.2f | %8.2f\n", model.targets[i].c_str(),
                model.slope[i][0] * 1e6, model.slope[i][1] * 1e6);
  }

  std::printf(
      "\n  true CP/IF [uM] | naive CP/IF [uM]   | unmixed CP/IF [uM]\n");
  std::printf(
      "  ----------------+--------------------+-------------------\n");
  Rng rng(9);
  for (const auto& [cp_um, if_um] :
       std::vector<std::pair<double, double>>{
           {30.0, 0.0}, {0.0, 100.0}, {30.0, 100.0}, {60.0, 60.0}}) {
    chem::Sample cocktail = core::cocktail_sample(
        {{"cyclophosphamide", Concentration::micro_molar(cp_um)},
         {"ifosfamide", Concentration::micro_molar(if_um)}});
    const std::vector<double> responses = {
        cp.try_measure(cocktail, rng).value().response_a,
        ifos.try_measure(cocktail, rng).value().response_a};
    const auto naive = core::naive_estimates(model, responses);
    const auto unmixed = core::deconvolve(model, responses);
    std::printf("  %6.0f / %-6.0f | %7.1f / %-8.1f | %8.1f / %-8.1f\n",
                cp_um, if_um, naive[0].micro_molar(),
                naive[1].micro_molar(), unmixed[0].micro_molar(),
                unmixed[1].micro_molar());
  }
  std::printf(
      "  (naive readings over-report whenever the sibling drug is "
      "present; unmixing recovers both)\n");
}

void print_cohort_study() {
  std::printf(
      "\n(b) population study — maintenance troughs in the therapeutic "
      "window\n");
  const core::CatalogEntry entry =
      core::try_entry("MWCNT + CYP (cyclophosphamide)").value();
  const core::BiosensorModel sensor(entry.spec);
  Rng rng(77);
  const core::CalibrationProtocol protocol;
  const auto cal =
      protocol
          .try_run(sensor,
                   core::standard_series(entry.published.range_low,
                                         entry.published.range_high),
                   rng)
          .value()
          .result;

  const core::PharmacokineticModel population(Volume::liters(30.0),
                                              Time::seconds(6.0 * 3600.0));
  const core::TherapyMonitor monitor(
      sensor, cal.fit.slope, cal.fit.intercept,
      Concentration::micro_molar(20.0), Concentration::micro_molar(50.0),
      cal.linear_range_high);

  const core::CohortSpec spec{40, 1.6, 1.15};
  Rng cohort_rng(123);
  const auto cohort = core::generate_cohort(spec, cohort_rng);

  const double fixed = core::cohort_fixed_dose_in_window(
      cohort, population, 270.0, 8, Time::seconds(6.0 * 3600.0), 261.08,
      Concentration::micro_molar(20.0), Concentration::micro_molar(50.0));
  const double monitored = core::cohort_monitored_in_window(
      cohort, monitor, population, 150.0, 8, Time::seconds(6.0 * 3600.0),
      261.08, rng);

  std::printf(
      "  cohort: %zu patients, clearance spread x%.1f (geometric sd)\n",
      spec.patients, spec.clearance_gsd);
  std::printf("  fixed dose (tuned for the average patient): %4.0f%% of "
              "troughs in window\n",
              100.0 * fixed);
  std::printf("  biosensor-monitored dosing:                 %4.0f%% of "
              "troughs in window\n",
              100.0 * monitored);
  std::printf(
      "  (the paper's Section 1: mean-efficacy dosing reaches a fraction "
      "of patients;\n   drug monitoring personalizes the rest)\n");
}

void BM_CocktailAssay(benchmark::State& state) {
  const core::BiosensorModel cp(
      core::try_entry("MWCNT + CYP (cyclophosphamide)").value().spec);
  chem::Sample cocktail = core::cocktail_sample(
      {{"cyclophosphamide", Concentration::micro_molar(30.0)},
       {"ifosfamide", Concentration::micro_molar(100.0)}});
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cp.try_measure(cocktail, rng).value());
  }
}
BENCHMARK(BM_CocktailAssay)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::print_banner("Extension E3",
                      "multi-drug panels & population therapy study");
  print_cocktail_study();
  print_cohort_study();
  return bench::run_timings(argc, argv);
}
