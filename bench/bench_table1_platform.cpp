// Table 1 — "Features of different metabolite biosensors": the seven
// devices the platform provides, with their probes and techniques, plus
// the compositional validation and the platform-level scheduling numbers
// the paper's Section 3.1 describes.
#include "bench_util.hpp"

#include "core/platform.hpp"

namespace {

using namespace biosens;

void print_table1() {
  bench::print_banner(
      "Table 1", "Features of different metabolite biosensors");
  std::printf("%-18s | %-16s | %-22s | %-26s\n", "Target", "Probe",
              "Technique", "Electrode");
  std::printf(
      "-------------------+------------------+------------------------+----"
      "-----------------------\n");
  for (const core::CatalogEntry& e : core::platform_entries()) {
    std::printf("%-18s | %-16s | %-22s | %-26s\n", e.spec.target.c_str(),
                e.spec.assembly.enzyme.abbreviation.c_str(),
                std::string(core::to_string(e.spec.technique)).c_str(),
                e.spec.assembly.geometry.name.c_str());
  }

  // Platform-level figures behind the Section 3.1 description.
  core::Platform platform = core::Platform::paper_platform();
  std::printf("\nplatform: %zu sensors, full-panel wall time %s\n",
              platform.sensor_count(),
              to_string(platform.scheduled_panel_time()).c_str());

  std::printf(
      "compositional rules enforced: oxidase->chronoamperometry, "
      "CYP->cyclic voltammetry\n");
  std::printf(
      "chemical/electrical separation: assemblies carry no readout state; "
      "the signal chain carries no chemistry\n");
}

void BM_PlatformAssembly(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Platform::paper_platform());
  }
}
BENCHMARK(BM_PlatformAssembly);

void BM_SpecValidation(benchmark::State& state) {
  const auto entries = core::platform_entries();
  for (auto _ : state) {
    for (const core::CatalogEntry& e : entries) e.spec.try_validate().value();
  }
}
BENCHMARK(BM_SpecValidation);

void BM_LayerSynthesis(benchmark::State& state) {
  const core::CatalogEntry entry =
      core::try_entry("MWCNT/Nafion + GOD (this work)").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        electrode::try_synthesize(entry.spec.assembly).value());
  }
}
BENCHMARK(BM_LayerSynthesis);

}  // namespace

int main(int argc, char** argv) {
  print_table1();
  return biosens::bench::run_timings(argc, argv);
}
